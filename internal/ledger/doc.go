// Package ledger tracks asset ownership during a simulated exchange: a
// set of accounts holding money and documents, and conservation
// auditing. The simulator refuses transfers the payer cannot fund, so
// double-spends are structurally impossible. The ledger keeps balances,
// not history: a run's replayable record is the simulator's trace,
// bound by its settlement-log root (see sim.ReplayBalancesVerified).
//
// # Key types
//
//   - Ledger is the account book; New seeds it from explicit holdings,
//     ForProblem from a Problem's endowments and goods.
//   - Transfer moves a bundle all or nothing; CanPay pre-checks funding;
//     Balance returns defensive copies; Audit asserts that total money
//     and goods equal the opening snapshot (property-tested).
//
// # Concurrency and ownership
//
// A Ledger is single-owner mutable state with no interior locking — in
// this repo the owning sim.Network goroutine is the only writer. Balance
// copies mean readers can keep returned holdings without aliasing live
// state, but reading concurrently with a writer is still a race; share a
// Ledger only after the simulation that owns it has finished.
package ledger

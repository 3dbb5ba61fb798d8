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
//   - NewIndexed builds the book over a caller's party and item slot
//     indexes (the simulator shares its network's party index).
//     TransferAt and HoldingAt are Transfer and Balance by slot, and
//     ItemSlot resolves a document once: a funded TransferAt hashes no
//     ID.
//
// Slots are assigned deterministically: New interns parties and items
// in sorted order, NewIndexed keeps the caller's order and interns any
// missing opening party or item in sorted order. Which document Audit
// names first, when several fail conservation, is therefore the same
// on every run.
//
// # Concurrency and ownership
//
// A Ledger is single-owner mutable state with no interior locking — in
// this repo the owning sim.Network goroutine is the only writer. Balance
// copies mean readers can keep returned holdings without aliasing live
// state, but reading concurrently with a writer is still a race; share a
// Ledger only after the simulation that owns it has finished.
package ledger

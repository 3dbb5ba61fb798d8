// Package ledger tracks asset ownership during a simulated exchange: a
// set of accounts holding money and documents, and conservation
// auditing. The simulator refuses transfers the payer cannot fund, so
// double-spends are structurally impossible. The ledger keeps balances,
// not history: a run's replayable record is the simulator's trace,
// bound by its settlement-log root (see sim.ReplayBalancesVerified).
//
// # Key types
//
//   - Ledger is the account book of one problem, built by New in the
//     slot space of the problem's model.ActionTable: cash per party
//     slot, plus a transit account in the slot after the last party,
//     and documents per cell — the (party, item) pairs the problem's
//     exchanges move. The opening is the table's status quo (InitCash,
//     InitItems), so every account the problem can use exists from the
//     start and no transfer creates one.
//   - Transfer moves a bundle between two parties by ID, resolving
//     them and their cells through the table, all or nothing; Balance
//     returns defensive copies; Audit asserts that total money and the
//     count of every document, held or in flight, equal the opening
//     (property-tested).
//   - TransferAt and HoldingAt are Transfer and Balance by slot: the
//     simulator resolves a transfer's party slots and cells once, when
//     it is sent, and both of its ledger movements index arrays. The
//     documents in flight are counted per cell (InFlight).
//
// Slots come from the table, which numbers cells in exchange order.
// Audit checks documents in the order of their first cell, so which one
// it names, when several fail conservation, is the same on every run.
//
// # Concurrency and ownership
//
// A Ledger is single-owner mutable state with no interior locking — in
// this repo the owning sim.Network goroutine is the only writer. The
// action table it reads is immutable and may be shared. Balance copies
// mean readers can keep returned holdings without aliasing live state,
// but reading concurrently with a writer is still a race; share a
// Ledger only after the simulation that owns it has finished.
package ledger

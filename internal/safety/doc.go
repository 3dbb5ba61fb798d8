// Package safety implements the risk semantics behind the paper's notion
// of feasibility: "a feasible exchange can be carried out in such a way
// that no participant ever risks losing money or goods without receiving
// everything promised in exchange" (Section 1).
//
// The central predicate is SafeFor: after any prefix of an execution, a
// principal x is safe iff x — acting alone, with every other principal
// stopped and trusted components honouring their Section 2.5 guarantees —
// can still steer the exchange into a state acceptable to x. A whole
// execution sequence is safe iff every principal is safe after every
// prefix. This is the property the sequencing-graph reduction promises
// for feasible graphs, and the property the exhaustive-search baseline
// optimizes over directly.
//
// # Key types
//
//   - Exec is the mutable execution state, dense over the problem's
//     compiled model.ActionTable: its executed actions are a
//     model.State (a bitset by slot, which Snapshot copies), with cash
//     by party slot and item counts by cell, so every predicate reads
//     slots and none hashes an action. NewExec builds one (and the
//     table, on first use); ClonePooled and Release recycle them through
//     an internal pool. Apply of an action the problem does not define
//     fails closed with a *model.ForeignActionError.
//   - SafeFor / AssetSafe are the two safety semantics (full conjunction
//     acceptability vs per-exchange asset integrity); AllSafe and
//     Completed are the whole-state aggregates the search baseline
//     branches on.
//   - Fingerprint128 packs an Exec's visited state into a [2]uint64 for
//     the search layer's seen-set — injective over the state space, which
//     is what makes memoized search exact rather than probabilistic.
//
// # Concurrency and ownership
//
// An Exec is single-owner mutable state: exactly one goroutine may drive
// it at a time, and the NewExec/Release pool means a released Exec must
// not be touched again. Parallel searchers therefore own their Execs
// (each search.FeasibleObs fan-out worker clones its own). The predicates
// never mutate the Exec they are given — they work on pooled clones — so
// interleaving predicate calls from the single owner is safe. The
// underlying Problem and its action table are shared read-only across
// all Execs.
package safety

// Package sequencing implements the sequencing graphs of Section 4 — the
// paper's central contribution. A sequencing graph SG = (C, J, R, B) is
// derived mechanically from an interaction graph: one commitment node per
// interaction edge, one conjunction node per internal interaction node,
// and red (ordered) or black (unordered) edges between them. Two
// reduction rules remove edges; the exchange is declared feasible when
// every edge can be removed (Section 4.2.4).
//
// # Key types
//
//   - Graph holds Commitment and Conjunction nodes and their red/black
//     Edges; New builds it from an interaction.Graph, and NewSplit builds
//     the indemnity-split variant of Section 6 in which a conjunction is
//     divided per indemnity account.
//   - Reduction records the outcome: the ordered list of Removals (each
//     tagged with the Rule that fired), the residual edges, and the
//     feasibility verdict derived from whether the graph emptied.
//   - Reduce (the worklist reducer, which takes optional telemetry) and
//     ReducePreferred (a caller-chosen removal order) are alternative
//     strategies over the same two rules. The naive rescan and the
//     random-order reducers are ReducePreferred priorities (constant and
//     random), kept in the tests. The confluence property (any maximal
//     reduction reaches the same verdict, Section 4.2.4) is what makes
//     the choice a performance knob rather than a correctness one, and
//     is property-tested.
//
// # Concurrency and ownership
//
// A Graph is built once and then treated as read-only; Reduce never
// mutates the input Graph — it tracks removals in its own working state —
// so many reductions of the same Graph may run concurrently (the
// random-order property tests do exactly this). Reduction results are
// plain immutable data. Nothing in this package starts goroutines or
// locks; parallelism lives in the callers (search, sweep, service).
package sequencing

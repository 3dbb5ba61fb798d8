// Package sequencing implements the sequencing graphs of Section 4 — the
// paper's central contribution. A sequencing graph SG = (C, J, R, B) is
// a function of the compiled problem's action table: one commitment
// node per exchange (an edge of the Section 3 interaction graph), one
// conjunction node per internal party, and red (ordered) or black
// (unordered) edges between them. Two reduction rules remove edges; the
// exchange is declared feasible when every edge can be removed (Section
// 4.2.4).
//
// # Key types
//
//   - Graph holds Commitment and Conjunction nodes and their red/black
//     Edges. Build is its one constructor: it reads the table's rows —
//     the exchanges' party slots, persona flags and red marks, and each
//     principal's unsplit Rest row, so an accepted indemnity divides a
//     conjunction (Section 6). SameGraph compares exactly those rows of
//     two compiled problems, so an edit whose rows are equal can keep
//     its base graph and reduction (Reduction.Rebind). InteractionDOT
//     renders the interaction graph itself.
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
// A Graph is built once and then treated as read-only: Rebind copies
// instead of writing, and Reduce never mutates the input Graph — it
// tracks removals in its own working state — so many reductions of the
// same Graph may run concurrently (the random-order property tests do
// exactly this). Reduction results are
// plain immutable data. Nothing in this package starts goroutines or
// locks; parallelism lives in the callers (search, sweep, service).
package sequencing

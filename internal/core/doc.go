// Package core is the public orchestration layer of the library: it takes
// a compiled commercial-exchange problem (model.Compiled), builds its
// sequencing graph from the compiled table, reduces it, and — when the
// exchange is feasible — recovers a concrete execution sequence (Section
// 5): the total order of deposits, notifications and deliveries that
// protects every participant at every step.
//
// The recovered plan follows the paper's recipe: pairwise exchanges
// execute in the order their commitment nodes disconnected during the
// reduction; commitments attached to their conjunction by a red edge are
// committed first but executed last; a notify action is generated when a
// trusted component's conjunction node disconnects.
//
// # Key types
//
//   - Plan is the synthesis result: the Reduction it was recovered from,
//     Feasible flag, the ordered ExecutionSequence of Steps, and
//     Impasse() when infeasible. Verify replays the sequence through the
//     safety machinery.
//   - Step / StepKind are the units of the sequence: deposits,
//     completions, notifications, persona withdrawals.
//   - SynthesizeObs and SynthesizeWith are the entry points: the first
//     threads an obs.Telemetry through the stages, and SynthesizeWith
//     swaps the reduction strategy (used by the reduction-order property
//     tests). Synthesize compiles a builder first, for callers that hold
//     one. SynthesizeIncremental analyses an edit against a base plan:
//     it rebinds the base's graph and reduction when the rows the graph
//     reads are equal (sequencing.SameGraph) and runs the full pipeline
//     otherwise, or when the base came from SynthesizeWith.
//
// # Concurrency and ownership
//
// Synthesis is a pure function of its inputs: it only reads the
// compiled problem, which nothing writes, and allocates a fresh Plan per
// call, so any number of syntheses of one compiled problem may run
// concurrently.
// A returned Plan is immutable by convention; it may be read from many
// goroutines, as the sweep pipeline and the trustd result cache do.
package core

// Package petri is a place/transition Petri-net substrate with exact,
// bounded reachability: a breadth-first search for a marking that
// covers a target. Section 7.4 of the
// paper relates exchange feasibility to subset coverability of a Petri
// net in which "consumable resources (such as money) are modeled very
// naturally in the tokens"; Encode performs that encoding and
// CompletedTarget gives the "exchange completed" sub-marking whose
// coverability witnesses a completing execution.
//
// # Key types
//
//   - Net is the immutable structure: places, Transitions with
//     consume/produce vectors; NewNet builds one incrementally.
//   - Marking is a token count per place: the authoring form of the
//     initial and target markings.
//   - Encoding is the problem→net translation: the Net, the initial
//     Marking, the completed-target sub-marking, and the place/party
//     correspondence used in diagnostics. Encode rejects problems
//     whose money would overflow the int32 token counts with a
//     TokenOverflowError.
//   - CoverScratch is reusable working memory (arena, queue, seen-set)
//     for repeated coverability queries; ReachabilityResult reports the
//     bounded-exploration outcome and whether the budget was exhausted.
//
// # One exploration loop
//
// Net.ReachableCover is the only search. It runs on compiled forms:
// transitions flattened to sorted int32 arcs, markings packed into one
// slab addressed by index, and an open-addressing seen-table that
// confirms every hash match by exact equality. Telemetry (a
// "petri.cover" span with per-level events) only marks where each BFS
// level ends, so it never changes the exploration order, the verdict
// or the explored count. Encoding.Completable and
// Encoding.CompletableObs are the problem-level entry points.
//
// # Concurrency and ownership
//
// A Net and an Encoding are immutable once built and safe to share
// across goroutines. All mutable exploration state lives in a
// CoverScratch, which is strictly single-owner: one goroutine, one
// scratch, reused across queries to amortize allocation (the sweep
// pipeline keeps one per worker). Budgets (PetriBudget in callers) bound
// exploration, so a query either answers within budget or reports
// truncation explicitly — it never silently spins.
package petri

// Package indemnity implements Section 6: indemnity accounts that split
// conjunction nodes, the required-collateral computation, and the greedy
// ordering that minimizes the total collateral posted. A brute-force
// enumerator over all indemnification orders validates the greedy
// algorithm on small instances (Figure 7's $90-vs-$70 comparison).
//
// # Key types
//
//   - Candidates enumerates the indemnity offers that could unblock an
//     infeasible problem (one per conjunction that an account split
//     could free).
//   - Greedy picks an ordering that minimizes posted collateral;
//     InOrder prices one explicit ordering; Optimal brute-forces all
//     orderings as the validation oracle.
//   - Result carries the chosen Splits, per-split collateral, the total,
//     and the indemnified Problem ready for re-synthesis; Split is one
//     conjunction division with its price.
//
// # Concurrency and ownership
//
// All three solvers are pure functions over an immutable compiled
// problem: they append offers to a builder clone of it and compile the
// clone again, and return fresh Results, so concurrent calls — the
// trustd service invokes Greedy on every infeasible analysis — need no
// coordination. Optimal is
// factorial in the candidate count and intended only for test-sized
// instances; production paths use Greedy.
package indemnity

// Package search is the exhaustive baseline the paper does not provide:
// it explores every interleaving of physical moves (deposits, persona
// withdrawals; trusted completions are forced) and reports whether some
// execution sequence completes every exchange while keeping every
// principal safe after every prefix.
//
// Two safety semantics are supported, bracketing the paper's informal
// guarantee:
//
//   - ModeAssets: per-exchange asset integrity (safety.AssetSafe) — "no
//     participant ever risks losing money or goods without receiving
//     everything promised in exchange". This is the weaker, purely
//     physical reading.
//   - ModeStrong: full conjunction acceptability (safety.SafeFor) — every
//     principal can always steer to a state acceptable to its stated
//     all-or-nothing preferences, assuming only physical deposits bind.
//
// Comparing the sequencing-graph verdict against both search verdicts
// measures where the graph algorithm sits between the two semantics
// (experiment E10): graph-feasible exchanges are always ModeAssets-
// feasible; some (those leaning on binding commitments, like the Section
// 4.2.3 persona variant) are not ModeStrong-feasible.
//
// # Key types
//
//   - Verdict reports feasibility, the witness Move sequence when
//     feasible, and how many distinct states were explored.
//   - Mode selects the safety semantics; Move is one physical action in
//     a witness.
//   - Feasible compiles a problem and runs the memoized depth-first
//     search without telemetry; FeasibleObs runs the same search on a
//     compiled problem with telemetry.
//
// # One search loop
//
// The search is one deterministic depth-first loop with a private memo:
// a flat open-addressing table keyed on safety.Fingerprint128 digests,
// with a string-keyed fallback for problems over 128 bits. The verdict,
// the witness and the Explored count depend only on the problem and the
// mode.
//
// # Concurrency and ownership
//
// A call is reentrant and owns all of its state: its Execs, move
// buffers and memo. Concurrent calls share only the immutable compiled
// Problem, so callers parallelize across problems and requests (the
// sweep's worker pool, the service's engine slots), never inside one
// search. The telemetry handed to FeasibleObs must be nil or
// concurrency-safe (obs types are).
package search

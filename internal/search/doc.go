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
//   - Feasible runs the memoized depth-first search serially, without
//     telemetry. FeasibleObs takes a worker count and telemetry: with
//     workers ≤ 1 it is the same serial search, and with more it fans
//     the root's moves out to a worker pool, returning the identical
//     Feasible verdict for any worker count.
//
// # One search loop
//
// A single searcher type runs the DFS in both cases. The serial search
// is one searcher with a private memo: a flat open-addressing table
// keyed on safety.Fingerprint128 digests, with a string-keyed fallback
// for problems over 128 bits. Each fan-out worker is the same searcher
// pointed at a shared 32-shard memo (sharedMemo, one mutex per shard)
// and a stop flag that prunes the remaining search once any worker
// holds a witness.
//
// # Concurrency and ownership
//
// A call is reentrant and owns all of its state. In the fan-out, each
// worker owns its Execs and move buffers; the workers share the
// immutable compiled Problem, the stop flag and the sharded memo, whose
// shard locks are taken on every memo lookup and store. An in-progress
// entry read by another worker prunes that worker's subtree, which is
// sound because the entry's owner still evaluates it fully, so the
// verdict never depends on scheduling; the witness and Explored count
// may. The telemetry handed to FeasibleObs must be nil or
// concurrency-safe (obs types are).
package search

// Package sweep is the concurrent cross-validation pipeline (E10 at
// scale): it drives batches of generated problems — random brokered
// markets, resale chains, broker stars — through the full stack
// (sequencing-graph synthesis, exhaustive search under both safety
// semantics, Petri-net coverability) with a bounded worker pool, and
// aggregates agreement statistics between the verdicts.
//
// Determinism: every problem derives its own seed from Config.Seed and
// its index, and results land in an index-addressed slice, so a sweep's
// Results and Stats are identical for any worker count — only the
// wall-clock changes. That property is what lets the serial-vs-parallel
// benchmarks assert identical verdicts while measuring speedup.
//
// # Key types
//
//   - Config names the batch: Family (ParseFamily accepts the CLI/HTTP
//     spelling), N, Seed, Workers, the MaxSearchExchanges and
//     PetriBudget caps that keep exhaustive baselines tractable, chaos
//     parameters, and an optional obs.Telemetry.
//   - CrossCheck is the one cross-check (both searches and Petri
//     coverability) behind the sweep, trustd's ?crosscheck and E10.
//   - Result is one problem's verdict tuple (graph, the embedded
//     Verdicts, simulation); Stats counts agreements and
//     disagreements; Report bundles Results, Stats and a human Summary.
//   - Run executes a batch; RunContext is the cancellable variant the
//     trustd /v1/sweep endpoint uses — on cancellation it returns
//     completed results so far with Canceled set.
//
// # Concurrency and ownership
//
// Run owns its worker pool: workers pull indexes from a shared channel,
// write only to their own slot in the pre-sized results slice, and keep
// per-worker scratch (safety Execs, petri.CoverScratch), so no locks are
// held during analysis. The pool is the sweep's only parallelism: each
// problem's searches and coverability check run serially on the worker
// that drew it. The Config is read-only during the run; the
// returned Report is immutable. Telemetry is additive by the obs
// contract — enabling it cannot change any verdict (property-tested).
package sweep

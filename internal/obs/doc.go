// Package obs is the stdlib-only observability layer of the repo: a
// cheap, concurrency-safe metrics registry (counters, gauges, fixed-
// bucket histograms) and a structured span/event tracer with pluggable
// sinks (JSONL for files, a ring buffer for tests, the nil tracer as a
// no-op). Everything is nil-safe: a nil *Registry, *Tracer or
// *Telemetry simply does nothing, so instrumented hot paths cost one
// pointer check when observability is off — the PR-1 serial-vs-parallel
// benchmarks run with nil telemetry and are unchanged.
//
// Telemetry is additive by contract: nothing recorded here may feed
// back into verdicts, plans or sweep Results, so enabling a trace can
// never change what the engines decide (property-tested in the sweep).
//
// # Key types
//
//   - Registry interns named Counter, Gauge and Histogram instruments;
//     NewRegistry is the only constructor. Snapshot / HistogramSnapshot
//     are point-in-time copies for rendering; MetricsHandler serves
//     them over HTTP (the trustd /metrics endpoint).
//   - Tracer emits spans and events to a Sink; Attr is the typed
//     key/value attribute; Telemetry bundles a Registry and Tracer so
//     engines take one optional pointer.
//   - HTTPMetrics (httpmw.go) wraps an http.Handler with per-endpoint
//     request counters, latency histograms, status-class counters and an
//     in-flight gauge.
//   - DurationBuckets and CountBuckets are the shared histogram layouts.
//
// # Concurrency and ownership
//
// All instruments are safe for unsynchronized concurrent use: counters
// and gauges are atomics, histograms take a short mutex per observation,
// and the registry's intern map is lock-guarded only on first lookup —
// callers are expected to intern once and hold the instrument pointer
// (the service does this at construction). Snapshots are consistent
// copies, not live views. Sinks serialize internally; a Tracer may be
// shared freely.
package obs

// Package service is the resident protocol-synthesis layer behind the
// trustd daemon (cmd/trustd): it turns the one-shot analysis pipeline
// of the CLIs — parse, compile, reduce, recover the execution sequence,
// cross-check, simulate — into a cached request/response system, the
// long-lived escrow-intermediary shape the paper's Section 2.5 trusted
// components are meant to have in deployment. The ?crosscheck stage is
// sweep.CrossCheck, the one cross-check the sweep and E10 also run.
//
// # Request lifecycle
//
// POST /v1/analyze accepts a problem either as a raw .exch body or as a
// JSON spec {"source": …, options…}; query parameters (?seq, ?verify,
// ?crosscheck, ?simulate, ?seed, ?format=text) override body options.
// A body over 1 MiB is refused with 413, never analysed as a truncated
// prefix. The handler first decodes the request form and options
// (cheap), then looks the decoded source up in the source index:
//
//  1. source hit — the source has been parsed before, so the index
//     already holds its problem's hash state, hence its digest and the
//     request key. When that key's result is resident the stored body
//     is replayed byte-for-byte without parsing, compiling or
//     fingerprinting anything (X-Trustd-Cache: hit, counted in
//     service.cache.source_hits). In cluster mode the indexed digest
//     also routes the request, so a non-owner proxies a repeat
//     unparsed;
//  2. otherwise the source is parsed (dsl.LoadReader) and fingerprinted
//     once, the index learns it (parse failures are 400s and are never
//     indexed), and the parse path below runs. So does an indexed
//     source whose result is not resident: the engines need the
//     problem itself.
//
// On the parse path the problem is compiled (model.Problem.Compile),
// and then:
//
//  1. cache hit — the stored body is replayed byte-for-byte
//     (X-Trustd-Cache: hit; a reformatted source lands here);
//  2. an identical run is already in flight — the request parks on it
//     instead of starting another engine run (X-Trustd-Cache:
//     coalesced; this is the singleflight collapse);
//  3. otherwise a leader goroutine takes a slot on the bounded engine
//     semaphore, runs the pipeline, derives one Report and renders both
//     bodies from it (JSON and the trustseq-identical text), signs them
//     into the log, publishes to the LRU cache and wakes every waiter
//     (X-Trustd-Cache: miss).
//
// Every waiter — leader's request included — honors its own per-request
// timeout; a timed-out request returns 504 while the engine run it
// started completes and still populates the cache, so the work is never
// wasted.
//
// # Cache key
//
// Two content-addressed tables sit in front of the engines. The result
// cache is keyed on the compiled problem, not the source text:
// problemState streams a canonical, length-prefixed encoding of every
// verdict-relevant problem field (parties, exchanges, trust
// declarations, indemnities, constraints — in declaration order, which
// is semantically meaningful) through a two-lane FNV-1a accumulator;
// finishing that state with a splitmix avalanche gives the problem
// digest (X-Trustd-Digest), and folding the option set in first gives
// the request key, in the same [2]uint64 shape as the packed-fingerprint
// memo in internal/search. Reformatted or re-commented sources
// therefore share one cache slot; any change that could alter the
// response body changes the key.
//
// The source index in front of it is keyed on the source bytes: the
// first 128 bits of SHA-256 over the decoded source (the raw body, or
// the JSON form's "source" string, so both forms share one entry) map
// to the problem's hash state. SHA-256 rather than FNV because a
// crafted source must not be able to alias a resident one. Parsing and
// fingerprinting are pure functions of the source, so an entry never
// goes stale; the index is an LRU of CacheEntries entries under the
// same mutex as the cache, and it changes no cache key, log leaf or
// body.
//
// # Concurrency and ownership
//
// A Service is safe for unbounded concurrent use. One mutex guards the
// source index, the LRU caches and the in-flight table and is never
// held across an engine run; engine parallelism is bounded only by the
// MaxConcurrent semaphore. Cached bodies are immutable after insertion
// and shared by reference — handlers must never mutate them. Telemetry
// follows the repo-wide contract: counters (service.cache.hits/misses/
// evictions/source_hits, service.flight.collapsed, service.timeouts)
// and per-endpoint HTTP histograms are additive and nil-disabled, and
// response bodies are identical with telemetry on or off.
//
// # Request-scoped observability
//
// Every request carries an identity: X-Trustd-Request-Id is accepted
// from the client when well-formed, generated otherwise, and always
// echoed back. The handler pipeline records its stages against the
// request — parse (read and decode the request), digest (hash the
// source, probe the index), load (parse and fingerprint the source;
// skipped on a source hit), compile, cache, engine/patch, crosscheck,
// simulate, render (the Report, both bodies and the log append) —
// surfaces them in a Server-Timing response header,
// and hands the engine run a tracer fanning out into a bounded
// request-local ring, so core/sequencing/search/petri spans land in the
// same record with no process-wide sink. The slow-request log (slowlog.go) keeps a
// bounded recent-request table for every request and the full span tree
// for any request crossing the SlowLogMillis threshold; GET /v1/requests
// serves the table, GET /v1/trace/{id} the retained tree, and GET
// /v1/stats folds in rolling-window latency percentiles per endpoint,
// cache age/traffic detail, and the log's occupancy. All of it obeys
// the additivity contract above: a nil reqTrace (the plain Analyze API,
// benchmarks) costs a handful of nil checks and allocates nothing.
package service

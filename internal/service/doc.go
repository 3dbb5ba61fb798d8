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
// prefix, and a JSON body holding anything but whitespace after its one
// value is a 400. The handler first decodes the request form and options
// (cheap), then finds the problem digest. A source seen before has it
// in the source index; any other source is parsed (dsl.LoadReader),
// compiled (model.Compile) and digested once, and the index learns it
// (sources that do not parse or compile are 400s and are never
// indexed). In cluster mode the digest routes the request, so
// a non-owner proxies a repeated source unparsed. Then the request key
// (digest × options) is looked up once:
//
//  1. cache hit — the stored body is replayed byte-for-byte
//     (X-Trustd-Cache: hit). A repeated source is served without being
//     parsed or compiled (counted in service.cache.source_hits); a
//     reformatted source lands here through the parse;
//  2. an identical run is already in flight — the request parks on it
//     instead of starting another engine run (X-Trustd-Cache:
//     coalesced; this is the singleflight collapse);
//  3. otherwise the request becomes the leader: it parses and compiles
//     the source (model.Compile) if it has not yet, and a goroutine
//     takes a slot on the bounded engine semaphore, runs the
//     pipeline, derives one Report and renders both bodies from it (JSON
//     and the trustseq-identical text), signs them into the log,
//     publishes to the LRU cache and wakes every waiter (X-Trustd-Cache:
//     miss).
//
// Every waiter — leader's request included — honors its own per-request
// timeout; a timed-out request returns 504 while the engine run it
// started completes and still populates the cache, so the work is never
// wasted.
//
// # Cache key
//
// Every content address is the first 128 bits of a SHA-256, in the
// [2]uint64 shape the caches, the ring and the log share. The result
// cache is keyed on the compiled problem, not the source text. The
// lifecycle is build → model.Compile → analyse (to edit: Clone, edit,
// Compile), and a compiled problem carries its own content address:
// Compiled.Digest, SHA-256 over a canonical, length-prefixed encoding of
// every verdict-relevant problem field (parties, exchanges, trust
// declarations, indemnities, constraints — in declaration order, which
// is semantically meaningful), computed once. Its first 128 bits are the
// problem digest (X-Trustd-Digest), so the digest names exactly the
// value the engines read; the request key is the hash of the digest and
// the option set. ProblemDigest computes the same digest for a builder
// without compiling it. Reformatted or re-commented sources therefore share
// one cache slot; any change that could alter the response body changes
// the key. The hash is collision-resistant, so no crafted problem can
// be answered with another's result, coalesce onto another's run or be
// logged under another's leaf.
//
// The source index in front of the cache is keyed on the source bytes:
// the SHA-256 prefix of the decoded source (the raw body, or the JSON
// form's "source" string, so both forms share one entry) maps to the
// problem digest. Parsing and digesting are pure functions of the
// source, so an entry never goes stale; the index is an LRU of
// CacheEntries entries under the same mutex as the cache, and it
// changes no cache key, log leaf or body.
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
// source, probe the index), load (parse the source) and compile
// (compile and digest it; both skipped for a repeated source unless it
// leads a run), cache, engine, crosscheck,
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

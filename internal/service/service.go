package service

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"

	"trustseq/internal/cluster"
	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

// Options configures a Service. The zero value is usable: every field
// has a production default.
type Options struct {
	// CacheEntries bounds the content-addressed result cache. Default
	// 512 entries; the minimum is 1 (a cache is load-bearing for the
	// duplicate-collapse contract, so it cannot be disabled).
	CacheEntries int
	// BaseEntries bounds the base-plan cache serving incremental
	// analysis (X-Trustd-Base): every successful run deposits its plan
	// here under the problem digest, and an edit naming a resident
	// digest reuses the base analysis when the edit leaves the sequencing
	// graph unchanged, instead of a full pipeline run.
	// Default 64 entries; minimum 1. Plans are heavier than rendered
	// bodies, hence the smaller default.
	BaseEntries int
	// MaxConcurrent bounds how many engine runs execute at once; excess
	// requests queue until a slot frees or their timeout fires. Default
	// GOMAXPROCS.
	MaxConcurrent int
	// RequestTimeout bounds how long one analysis request waits for its
	// engine run, queueing included; a cache hit never waits. A request
	// that times out returns 504 while its engine run completes and
	// still populates the cache. Default 30s.
	RequestTimeout time.Duration
	// SweepTimeout bounds one batch sweep request. Default 2m.
	SweepTimeout time.Duration
	// MaxSearchExchanges is sweep.CrossCheck's size cap: larger problems
	// report SearchSkipped instead of burning exponential time. Default
	// 10.
	MaxSearchExchanges int
	// PetriBudget bounds the coverability exploration. Default 1<<17.
	PetriBudget int
	// SearchWorkers > 1 parallelizes each exhaustive search. Default 1.
	SearchWorkers int
	// Telemetry receives the service counters (cache hits/misses/
	// evictions, collapsed duplicates, timeouts), the per-endpoint HTTP
	// histograms, and is threaded into every engine run. Nil disables.
	Telemetry *obs.Telemetry
	// SlowLogMillis is the slow-request threshold: any request whose
	// total duration reaches it has its full span tree retained for
	// /v1/trace/{id}. Positive is a threshold in milliseconds, 0 means
	// the default 250, and a negative value retains every request (the
	// CI smoke job runs that way). Request IDs, Server-Timing and the
	// recent-request table are always on — they are per-request state
	// with no cross-request cost.
	SlowLogMillis int
	// SlowLogEntries bounds both the recent-request table and the
	// slow-trace ring (each holds this many records). Default 128.
	SlowLogEntries int
	// Cluster, when non-nil, puts the service in cluster mode: the node's
	// consistent-hash ring routes each analyze request to its owner
	// (non-owners proxy, one hop max), and /v1/sweep partitions across
	// live members. A cache miss always runs the engines on the node that
	// signs the result into its log. Nil — the default — is single-node
	// operation, byte-identical to previous releases.
	Cluster *cluster.Node
}

func (o Options) withDefaults() Options {
	if o.CacheEntries < 1 {
		o.CacheEntries = 512
	}
	if o.BaseEntries < 1 {
		o.BaseEntries = 64
	}
	if o.MaxConcurrent < 1 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.SweepTimeout <= 0 {
		o.SweepTimeout = 2 * time.Minute
	}
	if o.MaxSearchExchanges <= 0 {
		o.MaxSearchExchanges = 10
	}
	if o.PetriBudget <= 0 {
		o.PetriBudget = 1 << 17
	}
	if o.SearchWorkers < 1 {
		o.SearchWorkers = 1
	}
	if o.SlowLogMillis == 0 {
		o.SlowLogMillis = 250
	}
	if o.SlowLogEntries < 1 {
		o.SlowLogEntries = 128
	}
	return o
}

// AnalyzeOptions selects what one analysis request computes. Every
// field participates in the cache key, so two requests share a cached
// body only when they agree on all of it.
type AnalyzeOptions struct {
	Trace      bool  `json:"trace"`      // include the reduction trace
	Indemnify  bool  `json:"indemnify"`  // propose collateral when infeasible
	Verify     bool  `json:"verify"`     // re-verify the plan step by step
	CrossCheck bool  `json:"crosscheck"` // exhaustive-search + Petri verdicts
	Simulate   bool  `json:"simulate"`   // run the plan on the simulated network
	SimSeed    int64 `json:"seed"`       // simulation RNG seed
	// SimDeadline is the escrow expiry in ticks; 0 means the simulator
	// default (1000, comfortably beyond any honest run).
	SimDeadline int64 `json:"deadline"`
}

// Result is the JSON answer of POST /v1/analyze.
type Result struct {
	Problem    ProblemInfo     `json:"problem"`
	Feasible   bool            `json:"feasible"`
	Reduction  string          `json:"reduction,omitempty"`
	Impasse    string          `json:"impasse,omitempty"`
	Sequence   string          `json:"sequence,omitempty"`
	Steps      []string        `json:"steps,omitempty"`
	Verified   *bool           `json:"verified,omitempty"`
	Indemnity  *IndemnityInfo  `json:"indemnity,omitempty"`
	CrossCheck *CrossCheckInfo `json:"crosscheck,omitempty"`
	Simulation *SimulationInfo `json:"simulation,omitempty"`
}

// ProblemInfo summarizes the compiled problem.
type ProblemInfo struct {
	Name       string `json:"name"`
	Principals int    `json:"principals"`
	Trusted    int    `json:"trusted"`
	Exchanges  int    `json:"pairwise_exchanges"`
}

// IndemnityInfo is the Section 6 proposal for an infeasible exchange.
type IndemnityInfo struct {
	Feasible bool   `json:"feasible"`
	Text     string `json:"text,omitempty"`
}

// CrossCheckInfo carries the independent verdicts (Section 7.4 and the
// exhaustive baseline) next to the graph verdict.
type CrossCheckInfo struct {
	SearchSkipped  bool `json:"search_skipped"`
	AssetsFeasible bool `json:"assets_feasible"`
	StrongFeasible bool `json:"strong_feasible"`
	PetriFound     bool `json:"petri_found"`
	PetriCapped    bool `json:"petri_capped"`
	// Agreement is the sweep's soundness predicate evaluated on this
	// problem: graph-feasible implies assets-feasible.
	Agreement bool `json:"agreement"`
}

// SimulationInfo summarizes one seeded honest run of the plan.
type SimulationInfo struct {
	Completed bool   `json:"completed"`
	Messages  int    `json:"messages"`
	Duration  int64  `json:"duration_ticks"`
	Summary   string `json:"summary"`
	// SettlementRoot is the Merkle root of the run's verifiable
	// settlement log (hex; see internal/vlog): the anchor against which
	// the run's trace can be replayed proof-checked. JSON only — the
	// text rendering stays byte-identical to the trustseq CLI.
	SettlementRoot string `json:"settlement_root,omitempty"`
}

// Service is the protocol-synthesis daemon behind cmd/trustd: it
// compiles each request once, runs the engines at most once per
// distinct (problem, options) pair, and replays cached bodies
// byte-for-byte. See the package comment for the request lifecycle.
type Service struct {
	opts Options
	sem  chan struct{}

	mu     sync.Mutex // guards sources, cache, bases and flight — never held across an engine run
	cache  *lru[*cached]
	bases  *lru[*core.Plan]
	flight map[[2]uint64]*call
	// sources is the source index in front of the result cache: the
	// source key (sourceKey) of every successfully parsed body maps to
	// its problem digest (problemDigest), so a repeated body finds its
	// request key without being parsed again. Sized like the result
	// cache.
	sources *lru[[2]uint64]

	// reqlog is the request flight recorder (slowlog.go); runtime feeds
	// the /metrics scrape with process health.
	reqlog  *requestLog
	runtime *obs.Runtime

	// vl is the daemon's verifiable analysis log (vlog.go): every
	// published result appends one leaf; /v1/proof serves proofs over it.
	vl *serviceLog

	// Pre-interned counters: the analyze path must not take the
	// registry lock per request.
	cacheHits, cacheMisses, cacheEvictions *obs.Counter
	sourceHits                             *obs.Counter
	collapsed, timeouts                    *obs.Counter
	incPatched, incFull, incBaseMiss       *obs.Counter
	slowRequests                           *obs.Counter

	// Cluster mode (nil fields when Options.Cluster is nil; the obs
	// counters are nil-safe, so the single-node hot path pays only a
	// pointer check).
	cluster    *cluster.Node
	peerClient *http.Client

	clusterOwned, clusterProxied, clusterLocal    *obs.Counter
	clusterSweepDistributed, clusterSweepFallback *obs.Counter

	// testComputeHook, when set, runs at the top of every engine run.
	// Tests use it to hold runs open and provoke collapses/timeouts.
	testComputeHook func()
}

// call is one in-flight engine run; duplicate requests for the same
// key park on done instead of starting their own run.
type call struct {
	done chan struct{}
	val  *cached
	err  error
	// inc is the incremental disposition of the run, written (by the
	// leader, before done closes) only for requests that named a base
	// digest; coalesced followers replay the leader's disposition.
	inc IncrementalDisposition
}

// New constructs a Service.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	reg := opts.Telemetry.Reg()
	s := &Service{
		opts:           opts,
		sem:            make(chan struct{}, opts.MaxConcurrent),
		cache:          newLRU[*cached](opts.CacheEntries),
		bases:          newLRU[*core.Plan](opts.BaseEntries),
		flight:         make(map[[2]uint64]*call),
		sources:        newLRU[[2]uint64](opts.CacheEntries),
		reqlog:         newRequestLog(opts.SlowLogMillis, opts.SlowLogEntries),
		runtime:        obs.NewRuntime(),
		vl:             newServiceLog(reg),
		cacheHits:      reg.Counter("service.cache.hits"),
		cacheMisses:    reg.Counter("service.cache.misses"),
		cacheEvictions: reg.Counter("service.cache.evictions"),
		sourceHits:     reg.Counter("service.cache.source_hits"),
		collapsed:      reg.Counter("service.flight.collapsed"),
		timeouts:       reg.Counter("service.timeouts"),
		incPatched:     reg.Counter("service.incremental.patched"),
		incFull:        reg.Counter("service.incremental.full"),
		incBaseMiss:    reg.Counter("service.incremental.base_miss"),
		slowRequests:   reg.Counter("service.requests.slow"),
	}
	if opts.Cluster != nil {
		s.cluster = opts.Cluster
		// Peer calls carry their own context deadlines; the client itself
		// has none so a long proxied analysis is not cut short.
		s.peerClient = &http.Client{}
		s.clusterOwned = reg.Counter("service.cluster.analyze.owner")
		s.clusterProxied = reg.Counter("service.cluster.analyze.proxied")
		s.clusterLocal = reg.Counter("service.cluster.analyze.local")
		s.clusterSweepDistributed = reg.Counter("service.cluster.sweeps_distributed")
		s.clusterSweepFallback = reg.Counter("service.cluster.sweep_range_fallbacks")
	}
	return s
}

// cacheDisposition labels how a request was served, for the
// X-Trustd-Cache response header and the counters.
type cacheDisposition string

const (
	dispositionHit       cacheDisposition = "hit"
	dispositionMiss      cacheDisposition = "miss"
	dispositionCoalesced cacheDisposition = "coalesced"
)

// IncrementalDisposition labels how the incremental machinery handled
// a request that named a base digest, for the X-Trustd-Incremental
// response header and the counters. Empty means no base digest was
// supplied (or the answer replayed from the result cache, where no
// engine — incremental or otherwise — ran at all).
type IncrementalDisposition string

// The incremental dispositions.
const (
	IncrementalPatched  IncrementalDisposition = "patched"
	IncrementalFullRun  IncrementalDisposition = "full"
	IncrementalBaseMiss IncrementalDisposition = "base-miss"
)

// Analyze compiles one problem and serves it: from the cache when
// possible, by joining an identical in-flight run when one exists, and
// by a fresh engine run otherwise. A problem that does not compile is a
// 422 carrying Compile's error. The returned body is immutable shared
// state — callers must not modify it.
func (s *Service) Analyze(ctx context.Context, p *model.Problem, opts AnalyzeOptions) (*cached, cacheDisposition, error) {
	c, err := model.Compile(p)
	if err != nil {
		return nil, dispositionMiss, &StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
	}
	res, d, _, err := s.analyzeTraced(ctx, problemDigest(c), c, nil, opts, nil, nil)
	return res, d, err
}

// analyzeTraced is the traced spine of Analyze and the HTTP handler: the
// one cache lookup of a request whose problem digest is digest. The
// problem is p, or when p is nil the source src compiles to; it is
// parsed and compiled only when this request leads a fresh engine run,
// so a repeated source is answered without either.
//
// A base digest names a previous problem: when its plan is still
// resident in the base cache, the request is served by the incremental
// path — when the rows of the compiled table the sequencing graph reads
// equal the base's, the base graph and reduction are reused at
// near-cache speed (disposition patched), with the body byte-identical
// to a full run. A digest with no resident plan reports base-miss and
// runs the full pipeline; so does an edit that changes the graph
// (disposition full).
// Every successful run, incremental or not, deposits its plan in the
// base cache for the next edit.
//
// When rt is non-nil it records the cache, load and compile stages
// against the request and (for the miss leader) threads a fan-out
// tracer through the engine run. A nil rt costs a handful of nil checks
// — the plain API paths and the disabled-telemetry benchmarks stay
// byte-for-byte.
func (s *Service) analyzeTraced(ctx context.Context, digest [2]uint64, p *model.Compiled, src []byte, opts AnalyzeOptions, base *[2]uint64, rt *reqTrace) (*cached, cacheDisposition, IncrementalDisposition, error) {
	key := requestKey(digest, opts)
	ls := rt.beginStage("cache")
	s.mu.Lock()
	if c, ok := s.cache.get(key); ok {
		s.mu.Unlock()
		rt.endStage(ls)
		s.cacheHits.Inc()
		return c, dispositionHit, "", nil
	}
	if fl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		rt.endStage(ls)
		s.collapsed.Inc()
		return s.await(ctx, fl, dispositionCoalesced)
	}
	var basePlan *core.Plan
	var inc IncrementalDisposition
	if base != nil {
		if pl, ok := s.bases.get(*base); ok {
			basePlan = pl
		} else {
			inc = IncrementalBaseMiss
		}
	}
	fl := &call{done: make(chan struct{}), inc: inc}
	s.flight[key] = fl
	s.mu.Unlock()
	rt.endStage(ls)
	s.cacheMisses.Inc()
	if inc == IncrementalBaseMiss {
		s.incBaseMiss.Inc()
	}
	if p == nil {
		var err error
		if p, _, err = loadSource(src, rt); err != nil {
			s.publish(fl, key, digest, nil, nil, err)
			return nil, dispositionMiss, "", err
		}
	}

	// The leader's run is decoupled from the leader's context: once
	// started it always finishes and publishes — a request that gives
	// up waiting must not waste the work for the next identical one.
	// The leader's request trace rides along: its engine and render
	// stages are recorded even if the leader stops waiting, so the
	// slow-request log still explains where the time went.
	go func() {
		s.sem <- struct{}{}
		val, plan, patched, err := s.compute(p, opts, basePlan, digest, key, rt)
		<-s.sem
		if basePlan != nil {
			if patched {
				fl.inc = IncrementalPatched
				s.incPatched.Inc()
			} else {
				fl.inc = IncrementalFullRun
				s.incFull.Inc()
			}
		}
		s.publish(fl, key, digest, val, plan, err)
	}()
	return s.await(ctx, fl, dispositionMiss)
}

// publish deposits a finished engine run into the caches, retires the
// in-flight entry, and releases the waiters.
func (s *Service) publish(fl *call, key, digest [2]uint64, val *cached, plan *core.Plan, err error) {
	s.mu.Lock()
	if err == nil {
		if s.cache.put(key, val) {
			s.cacheEvictions.Inc()
		}
		s.bases.put(digest, plan)
	}
	delete(s.flight, key)
	s.mu.Unlock()
	fl.val, fl.err = val, err
	close(fl.done)
}

// await parks on an in-flight run until it publishes, ctx ends or
// RequestTimeout passes. The disposition is only read on the publish
// path (close(done) is the happens-before edge); a timed-out request
// reports none.
func (s *Service) await(ctx context.Context, fl *call, d cacheDisposition) (*cached, cacheDisposition, IncrementalDisposition, error) {
	ctx, cancel := context.WithTimeout(ctx, s.opts.RequestTimeout)
	defer cancel()
	select {
	case <-fl.done:
		return fl.val, d, fl.inc, fl.err
	case <-ctx.Done():
		s.timeouts.Inc()
		return nil, d, "", ctx.Err()
	}
}

// compute runs the analysis pipeline for one request — incrementally
// against basePlan when one is resident — derives its Report once,
// renders both response bodies from it and signs them into the log
// under digest and key. It is the only place engines run. The returned
// plan is the request's deposit into the base cache; patched reports
// whether the incremental path actually exploited the base. A non-nil
// rt (the miss leader's request trace) receives the engine, crosscheck,
// simulate and render stages plus a fan-out tracer, so
// core/sequencing/search/petri spans land in the request's ring; the
// render stage covers the Report, both bodies and the log append.
func (s *Service) compute(p *model.Compiled, opts AnalyzeOptions, basePlan *core.Plan, digest, key [2]uint64, rt *reqTrace) (*cached, *core.Plan, bool, error) {
	if s.testComputeHook != nil {
		s.testComputeHook()
	}
	tel := rt.engineTelemetry(s.opts.Telemetry)
	engineStage := "engine"
	if basePlan != nil {
		engineStage = "patch"
	}
	es := rt.beginStage(engineStage)
	var plan *core.Plan
	var err error
	patched := false
	if basePlan != nil {
		var info core.IncrementalInfo
		plan, info, err = core.SynthesizeIncremental(basePlan, p, tel)
		patched = err == nil && info.Patched()
	} else {
		plan, err = core.SynthesizeObs(p, tel)
	}
	rt.endStage(es)
	if err != nil {
		return nil, nil, patched, &StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
	}

	var cc *CrossCheckInfo
	if opts.CrossCheck {
		xs := rt.beginStage("crosscheck")
		v, err := sweep.CrossCheck(p, s.opts.MaxSearchExchanges, s.opts.PetriBudget, s.opts.SearchWorkers, tel, nil)
		rt.endStage(xs)
		if err != nil {
			return nil, nil, patched, &StatusError{Code: http.StatusUnprocessableEntity, Msg: err.Error()}
		}
		cc = &CrossCheckInfo{
			SearchSkipped:  v.SearchSkipped,
			AssetsFeasible: v.AssetsFeasible,
			StrongFeasible: v.StrongFeasible,
			PetriFound:     v.PetriFound,
			PetriCapped:    v.PetriCapped,
			Agreement:      v.SearchSkipped || !plan.Feasible || v.AssetsFeasible,
		}
	}
	var simInfo *SimulationInfo
	if opts.Simulate && plan.Feasible {
		ss := rt.beginStage("simulate")
		out, err := sim.Run(plan, sim.Options{
			Seed:     opts.SimSeed,
			Deadline: sim.Time(opts.SimDeadline),
			Obs:      tel,
			VLog:     true,
		})
		rt.endStage(ss)
		if err != nil {
			return nil, nil, patched, &StatusError{Code: http.StatusInternalServerError, Msg: err.Error()}
		}
		simInfo = &SimulationInfo{
			Completed:      out.Completed(),
			Messages:       out.Messages,
			Duration:       int64(out.Duration),
			Summary:        out.Summary(),
			SettlementRoot: out.SettlementRoot,
		}
	}

	// Render derives the Report too: its verification, indemnity
	// proposal and execution sequence are part of the body's cost.
	rs := rt.beginStage("render")
	res, err := Report(plan, opts)
	if err != nil {
		rt.endStage(rs)
		return nil, nil, patched, err
	}
	res.CrossCheck, res.Simulation = cc, simInfo
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		rt.endStage(rs)
		return nil, nil, patched, &StatusError{Code: http.StatusInternalServerError, Msg: err.Error()}
	}
	body = append(body, '\n')
	val := &cached{json: body, text: []byte(res.Text(opts)), at: time.Now()}
	// Sign the result into the verifiable log before it becomes
	// visible: a client that reads a response can immediately demand a
	// membership proof for it. The leaf hashes both bodies.
	s.vl.append(digest, key, val)
	rt.endStage(rs)
	return val, plan, patched, nil
}

// CacheLen reports the number of cached results (for tests and the
// stats endpoint).
func (s *Service) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// BaseLen reports the number of resident base plans (for tests and the
// stats endpoint).
func (s *Service) BaseLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bases.len()
}

// StatusError is an error with an HTTP status. The handlers map any
// other error to 500.
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string { return e.Msg }

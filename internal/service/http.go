package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trustseq/internal/dsl"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

// maxSweepN caps the batch endpoint so one request cannot pin the
// process for minutes; larger corpora belong to the trustsim CLI.
const maxSweepN = 5000

// Handler returns the service mux:
//
//	POST /v1/analyze     analyse one problem (.exch body, or JSON spec)
//	POST /v1/sweep       run a bounded generated-corpus sweep
//	GET  /v1/stats       cache occupancy, rolling latency, slowlog state
//	GET  /v1/requests    the recent-request table with stage breakdown
//	GET  /v1/trace/{id}  the retained span tree of one slow request
//	GET  /v1/proof/{digest}              membership proof for an analysis
//	GET  /v1/proof/consistency?from=&to= append-only extension proof
//	GET  /metrics        registry snapshot (JSON; Prometheus exposition
//	                     under content negotiation)
//	GET  /healthz        liveness
//
// Every endpoint is wrapped in the obs HTTP middleware (latency
// histograms, status counters) and the request-identity middleware
// (X-Trustd-Request-Id assignment and echo); the /v1 endpoints are
// additionally recorded in the request log behind /v1/requests.
func (s *Service) Handler() http.Handler {
	reg := s.opts.Telemetry.Reg()
	mux := http.NewServeMux()
	handle := func(pattern, name string, h http.Handler, logged bool) {
		mux.Handle(pattern, obs.HTTPMetrics(reg, name, s.traced(name, h, logged)))
	}
	handle("/v1/analyze", "analyze", http.HandlerFunc(s.handleAnalyze), true)
	handle("/v1/sweep", "sweep", http.HandlerFunc(s.handleSweep), true)
	handle("/v1/stats", "stats", http.HandlerFunc(s.handleStats), true)
	handle("/v1/requests", "requests", http.HandlerFunc(s.handleRequests), true)
	handle("/v1/trace/", "trace", http.HandlerFunc(s.handleTrace), true)
	handle("/v1/proof/", "proof", http.HandlerFunc(s.handleProof), true)
	// Scrapes and probes get identity but stay out of the request log,
	// so a 15s Prometheus interval cannot wash real traffic out of the
	// recent-request table.
	handle("/metrics", "metrics", obs.MetricsHandler(reg, s.runtime), false)
	if s.cluster != nil {
		// The gossip wire protocol shares the service listener (one
		// advertised address per node). It gets metrics and identity but
		// stays out of the request log — gossip fires every interval and
		// would wash out real traffic.
		ch := s.cluster.Handler()
		handle("/cluster/gossip", "gossip", ch, false)
		handle("/cluster/members", "members", ch, false)
	}
	handle("/healthz", "healthz", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	}), false)
	return mux
}

// traced is the request-identity middleware: it accepts or assigns the
// request ID, echoes it, installs a reqTrace in the context for the
// handler's stage recording, and — when logged — files the finished
// record with the slow-request log.
func (s *Service) traced(endpoint string, h http.Handler, logged bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt := newReqTrace(clientRequestID(r), endpoint, r.Method)
		w.Header().Set(requestIDHeader, rt.id)
		sw := &obs.StatusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), reqTraceKey{}, rt)))
		rt.finish(sw.Status())
		if logged && s.reqlog.record(rt) {
			s.slowRequests.Inc()
		}
	})
}

// analyzeRequest is the JSON request schema of POST /v1/analyze. The
// same options are also settable as query parameters (?seq=1&verify=1
// …), which then override the body fields — that is what lets a plain
// .exch body express every option.
type analyzeRequest struct {
	Source string `json:"source"`
	AnalyzeOptions
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rt := traceFrom(r.Context())
	parse := rt.beginStage("parse")
	// The body is read up front so the cluster path can replay it
	// verbatim to the ring owner after routing the request.
	body, err := readBody(r, 1<<20)
	if err != nil {
		rt.endStage(parse)
		writeStatusError(w, err)
		return
	}
	src, opts, wantText, err := decodeAnalyzeRequest(r, body)
	rt.endStage(parse)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The source index: a body seen before already knows its problem
	// digest, so it is routed and (when its result is resident) answered
	// unparsed.
	ds := rt.beginStage("digest")
	skey := sourceKey(src)
	s.mu.Lock()
	digest, indexed := s.sources.get(skey)
	s.mu.Unlock()
	rt.endStage(ds)
	var p *model.Compiled
	if !indexed {
		if p, digest, err = loadSource(src, rt); err != nil {
			writeStatusError(w, err)
			return
		}
		s.mu.Lock()
		s.sources.put(skey, digest)
		s.mu.Unlock()
	}
	if s.cluster != nil && s.routeAnalyze(w, r, digest, body) {
		if indexed {
			s.sourceHits.Inc()
		}
		return
	}
	// An If-Match-style base digest turns the request into an edit of a
	// previously analyzed problem: when that base's plan is still
	// resident, an edit that leaves the sequencing graph unchanged reuses
	// its analysis.
	var base *[2]uint64
	if v := r.Header.Get("X-Trustd-Base"); v != "" {
		d, err := ParseDigest(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("X-Trustd-Base: %v", err))
			return
		}
		base = &d
	}
	res, disposition, incremental, err := s.analyzeTraced(r.Context(), digest, p, src, opts, base, rt)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			httpError(w, http.StatusGatewayTimeout, "analysis timed out; retry — the result will be cached when ready")
		default:
			writeStatusError(w, err)
		}
		return
	}
	if indexed && disposition == dispositionHit {
		s.sourceHits.Inc()
	}
	s.writeAnalyze(w, rt, res, disposition, incremental, digest, wantText)
}

// readBody reads r's body into one buffer sized from Content-Length
// when the client sent it, instead of growing a buffer by doubling — a
// 60 KB spec would otherwise allocate twice its size on every request.
// A body over limit bytes is a 413, never truncated: a prefix of a spec
// can parse as a different problem.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(min(r.ContentLength, limit+1)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1)); err != nil {
		return nil, &StatusError{Code: http.StatusBadRequest, Msg: fmt.Sprintf("reading body: %v", err)}
	}
	if int64(buf.Len()) > limit {
		return nil, &StatusError{Code: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("request body exceeds the %d MiB cap", limit>>20)}
	}
	return buf.Bytes(), nil
}

// writeAnalyze writes one successful analyze response: the cached body
// in the requested form under the disposition, digest and log-anchor
// headers.
func (s *Service) writeAnalyze(w http.ResponseWriter, rt *reqTrace, res *cached, disposition cacheDisposition, incremental IncrementalDisposition, digest [2]uint64, wantText bool) {
	rt.setDisposition(string(disposition), string(incremental))
	if st := rt.serverTiming(); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	w.Header().Set("X-Trustd-Cache", string(disposition))
	// The problem digest is this response's base handle: replay it in
	// X-Trustd-Base after an edit to request the incremental path.
	w.Header().Set("X-Trustd-Digest", FormatDigest(digest))
	// The verifiable-log anchor ("<size>:<root>"): fetch
	// /v1/proof/{digest} and verify it offline against this root.
	w.Header().Set(logRootHeader, s.vl.rootHeader())
	if incremental != "" {
		w.Header().Set("X-Trustd-Incremental", string(incremental))
	}
	if wantText {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(res.text)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.json)
}

// loadSource parses the decoded source into a problem, as the request's
// "load" stage, then compiles and digests it, as its "compile" stage.
// A source that does not parse or compile is a 400.
func loadSource(src []byte, rt *reqTrace) (*model.Compiled, [2]uint64, error) {
	ls := rt.beginStage("load")
	p, err := dsl.LoadReader(bytes.NewReader(src))
	rt.endStage(ls)
	if err != nil {
		return nil, [2]uint64{}, &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	cs := rt.beginStage("compile")
	defer rt.endStage(cs)
	c, err := model.Compile(p)
	if err != nil {
		return nil, [2]uint64{}, &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return c, problemDigest(c), nil
}

// decodeAnalyzeRequest decodes either request form (body already read
// by the handler, so cluster mode can replay it to the ring owner) into
// the .exch source plus options, reporting whether the caller wants the
// trustseq-identical text rendering. It does not parse the source: a
// body the source index knows is never parsed at all.
func decodeAnalyzeRequest(r *http.Request, body []byte) ([]byte, AnalyzeOptions, bool, error) {
	var req analyzeRequest
	src := body
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := decodeJSON(body, &req); err != nil {
			return nil, AnalyzeOptions{}, false, fmt.Errorf("decoding JSON spec: %w", err)
		}
		if strings.TrimSpace(req.Source) == "" {
			return nil, AnalyzeOptions{}, false, errors.New("JSON spec is missing \"source\"")
		}
		src = []byte(req.Source)
	}
	opts := req.AnalyzeOptions

	q := r.URL.Query()
	boolParam := func(dst *bool, names ...string) {
		for _, n := range names {
			if v := q.Get(n); v != "" {
				*dst = v != "0" && !strings.EqualFold(v, "false")
			}
		}
	}
	boolParam(&opts.Trace, "trace", "seq")
	boolParam(&opts.Indemnify, "indemnify")
	boolParam(&opts.Verify, "verify")
	boolParam(&opts.CrossCheck, "crosscheck")
	boolParam(&opts.Simulate, "simulate", "sim")
	// A fixed order, so a request with several malformed integers always
	// gets the same error.
	for _, ip := range []struct {
		name string
		dst  *int64
	}{{"seed", &opts.SimSeed}, {"deadline", &opts.SimDeadline}} {
		if v := q.Get(ip.name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, AnalyzeOptions{}, false, fmt.Errorf("query parameter %s: %w", ip.name, err)
			}
			*ip.dst = n
		}
	}
	wantText := q.Get("format") == "text" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain")
	return src, opts, wantText, nil
}

// decodeJSON decodes body as exactly one JSON value into v: an unknown
// field, or anything but whitespace after the value, is an error, so a
// request is never answered for a prefix of what the client sent.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// sweepRequest is the JSON request schema of POST /v1/sweep, a bounded
// subset of sweep.Config.
type sweepRequest struct {
	N                  int    `json:"n"`
	Workers            int    `json:"workers"`
	Seed               int64  `json:"seed"`
	Family             string `json:"family"`
	MaxSearchExchanges int    `json:"max_search_exchanges"`
	PetriBudget        int    `json:"petri_budget"`
	ChaosRuns          int    `json:"chaos_runs"`
	ChaosFaults        string `json:"chaos_faults"`

	// RangeLo/RangeHi restrict the run to global indices [lo, hi) —
	// the coordinator of a distributed sweep sets them on each
	// per-member forward. Plain clients leave them unset.
	RangeLo *int `json:"range_lo,omitempty"`
	RangeHi *int `json:"range_hi,omitempty"`
}

// sweepResponse summarizes a completed sweep. Results is populated only
// on ranged (coordinator-forwarded) requests: the coordinator needs the
// raw per-problem rows to merge, while plain clients get the aggregate —
// which also keeps a distributed response byte-identical to a
// single-node one, elapsed_ms aside.
type sweepResponse struct {
	Completed  int            `json:"completed"`
	Canceled   bool           `json:"canceled"`
	Violations int            `json:"violations"`
	Stats      sweep.Stats    `json:"stats"`
	Summary    string         `json:"summary"`
	ElapsedMS  int64          `json:"elapsed_ms"`
	Results    []sweep.Result `json:"results,omitempty"`
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(r, 1<<20)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	var req sweepRequest
	if err := decodeJSON(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding sweep config: %v", err))
		return
	}
	if req.N > maxSweepN {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("n %d exceeds the service cap %d", req.N, maxSweepN))
		return
	}
	cfg := sweep.Config{
		N:                  req.N,
		Workers:            req.Workers,
		Seed:               req.Seed,
		MaxSearchExchanges: req.MaxSearchExchanges,
		PetriBudget:        req.PetriBudget,
		ChaosRuns:          req.ChaosRuns,
		Obs:                s.opts.Telemetry,
	}
	if req.Family != "" {
		fam, err := sweep.ParseFamily(req.Family)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		cfg.Family = fam
	}
	if req.ChaosFaults != "" {
		menu, err := sim.ParseFaultMenu(req.ChaosFaults)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		cfg.ChaosFaults = menu
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.SweepTimeout)
	defer cancel()
	ranged := req.RangeLo != nil || req.RangeHi != nil
	if !ranged && s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		if s.distributeSweep(ctx, w, req, cfg) {
			return
		}
	}
	var rep *sweep.Report
	if ranged {
		lo, hi := 0, int(^uint(0)>>1)
		if req.RangeLo != nil {
			lo = *req.RangeLo
		}
		if req.RangeHi != nil {
			hi = *req.RangeHi
		}
		rep = sweep.RunContextRange(ctx, cfg, lo, hi)
	} else {
		rep = sweep.RunContext(ctx, cfg)
	}
	resp := sweepResponse{
		Completed:  rep.Completed,
		Canceled:   rep.Canceled,
		Violations: rep.Stats.Violations(),
		Stats:      rep.Stats,
		Summary:    rep.Summary(),
		ElapsedMS:  rep.Elapsed.Milliseconds(),
	}
	if ranged {
		// Only completed rows go back: the coordinator marks everything
		// it receives done, and Merge detects the missing indices.
		resp.Results = make([]sweep.Result, 0, len(rep.Results))
		for i, res := range rep.Results {
			if rep.Done[i] {
				resp.Results = append(resp.Results, res)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the GET /v1/stats schema. The flat cache fields
// predate the structured Cache block and stay for compatibility.
type statsResponse struct {
	CacheEntries  int `json:"cache_entries"`
	CacheCapacity int `json:"cache_capacity"`
	BaseEntries   int `json:"base_entries"`
	BaseCapacity  int `json:"base_capacity"`
	MaxConcurrent int `json:"max_concurrent"`

	Cache     cacheStats               `json:"cache"`
	Endpoints map[string]endpointStats `json:"endpoints,omitempty"`
	SlowLog   slowlogStats             `json:"slowlog"`
	VLog      vlogStats                `json:"vlog"`
	Cluster   *clusterStats            `json:"cluster,omitempty"`
}

// cacheStats details the result cache: lifetime traffic counters plus
// the age extremes of what is resident right now. SourceHits counts the
// requests the source index served unparsed (answered from the cache,
// or proxied to their ring owner); the answered ones also count as Hits.
type cacheStats struct {
	Hits             int64   `json:"hits"`
	Misses           int64   `json:"misses"`
	Evictions        int64   `json:"evictions"`
	SourceHits       int64   `json:"source_hits"`
	OldestAgeSeconds float64 `json:"oldest_age_seconds"`
	NewestAgeSeconds float64 `json:"newest_age_seconds"`
}

// endpointStats is the rolling-window latency of one endpoint.
type endpointStats struct {
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// slowlogStats reports the request log's configuration and traffic.
type slowlogStats struct {
	ThresholdMS int64 `json:"threshold_ms"`
	RetainAll   bool  `json:"retain_all"`
	Capacity    int   `json:"capacity"`
	Requests    int64 `json:"requests"`
	Slow        int64 `json:"slow"`
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := statsResponse{
		CacheEntries:  s.CacheLen(),
		CacheCapacity: s.opts.CacheEntries,
		BaseEntries:   s.BaseLen(),
		BaseCapacity:  s.opts.BaseEntries,
		MaxConcurrent: s.opts.MaxConcurrent,
		Cache: cacheStats{
			Hits:       s.cacheHits.Value(),
			Misses:     s.cacheMisses.Value(),
			Evictions:  s.cacheEvictions.Value(),
			SourceHits: s.sourceHits.Value(),
		},
	}
	now := time.Now()
	s.mu.Lock()
	s.cache.each(func(c *cached) {
		age := now.Sub(c.at).Seconds()
		if age > resp.Cache.OldestAgeSeconds {
			resp.Cache.OldestAgeSeconds = age
		}
		if resp.Cache.NewestAgeSeconds == 0 || age < resp.Cache.NewestAgeSeconds {
			resp.Cache.NewestAgeSeconds = age
		}
	})
	s.mu.Unlock()
	// Per-endpoint rolling percentiles, read from the same interned
	// histograms the HTTP middleware feeds; endpoints quiet for a full
	// window are omitted.
	if reg := s.opts.Telemetry.Reg(); reg != nil {
		for _, name := range []string{"analyze", "sweep", "stats", "requests", "trace", "proof", "metrics", "healthz"} {
			snap := reg.Rolling("http."+name+".rolling_seconds", obs.DurationBuckets()).Snapshot()
			if snap.Count == 0 {
				continue
			}
			if resp.Endpoints == nil {
				resp.Endpoints = make(map[string]endpointStats)
			}
			resp.Endpoints[name] = endpointStats{
				WindowSeconds: snap.WindowSeconds,
				Count:         snap.Count,
				P50MS:         snap.P50 * 1000,
				P90MS:         snap.P90 * 1000,
				P99MS:         snap.P99 * 1000,
			}
		}
	}
	resp.SlowLog.ThresholdMS, resp.SlowLog.RetainAll, resp.SlowLog.Capacity,
		resp.SlowLog.Requests, resp.SlowLog.Slow = s.reqlog.stats()
	resp.VLog = s.vl.stats()
	resp.Cluster = s.clusterStatsSnapshot()
	writeJSON(w, http.StatusOK, resp)
}

// requestsResponse is the GET /v1/requests schema: the recent-request
// table, newest first, stage breakdowns included, span trees omitted
// (fetch /v1/trace/{id} for those).
type requestsResponse struct {
	ThresholdMS int64           `json:"threshold_ms"`
	RetainAll   bool            `json:"retain_all"`
	Capacity    int             `json:"capacity"`
	Total       int64           `json:"total"`
	SlowTotal   int64           `json:"slow_total"`
	Requests    []*RequestTrace `json:"requests"`
}

func (s *Service) handleRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := requestsResponse{Requests: s.reqlog.recentList()}
	resp.ThresholdMS, resp.RetainAll, resp.Capacity, resp.Total, resp.SlowTotal = s.reqlog.stats()
	if resp.Requests == nil {
		resp.Requests = []*RequestTrace{}
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-20s %-9s %6s %8s %-9s %5s  %s\n",
			"ID", "ENDPOINT", "STATUS", "DUR(ms)", "CACHE", "SLOW", "STAGES")
		for _, t := range resp.Requests {
			var stages strings.Builder
			for i, st := range t.Stages {
				if i > 0 {
					stages.WriteString(" ")
				}
				fmt.Fprintf(&stages, "%s=%.2fms", st.Name, float64(st.DurUS)/1000)
			}
			slow := ""
			if t.Slow {
				slow = "slow"
			}
			fmt.Fprintf(w, "%-20s %-9s %6d %8.2f %-9s %5s  %s\n",
				t.ID, t.Endpoint, t.Status, t.DurMS, t.Cache, slow, stages.String())
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "usage: GET /v1/trace/{request-id}")
		return
	}
	t, ok := s.reqlog.get(id)
	if !ok {
		httpError(w, http.StatusNotFound,
			fmt.Sprintf("no retained trace for request %q — only requests crossing the slowlog threshold keep their span tree; see /v1/requests for the recent table", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(data, '\n'))
}

func writeStatusError(w http.ResponseWriter, err error) {
	var se *StatusError
	if errors.As(err, &se) {
		httpError(w, se.Code, se.Msg)
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

// Serve runs the handler on ln until ctx is canceled, then drains:
// in-flight requests get up to drain to finish before the listener's
// connections are torn down. It is the lifecycle cmd/trustd wraps in
// SIGTERM handling, factored here so the drain behavior is testable
// in-process.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete after %v: %w", drain, err)
	}
	return <-errc
}

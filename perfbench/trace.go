package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/model"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/service"
	"trustseq/internal/sim"
	"trustseq/internal/vlog"
)

// The traced run. It first measures the same window as an untraced run,
// for the op latency the layers must add up to and for the cache
// dispositions. It then replays the same request streams in-process,
// through each layer's public function in the order the service calls
// them, on the same number of goroutines. Every call is one span; spans
// stay in memory and are written out as JSON lines when the run ends.
// The per-layer metrics are per-op means of span self time, so they add
// up to the traced op latency.

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Conn   int    `json:"conn"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent in this connection's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is one goroutine's span log; nothing in it is shared, so
// recording takes no lock.
type recorder struct {
	conn  int
	epoch time.Time
	root  int
	spans []span
}

func newRecorders(n int) []*recorder {
	epoch := time.Now()
	recs := make([]*recorder, n)
	for c := range recs {
		recs[c] = &recorder{conn: c, epoch: epoch, spans: make([]span, 0, 1<<16)}
	}
	return recs
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginOp opens a root span: "op" for a replayed op, "probe" for an
// extra measurement that is not part of any op.
func (r *recorder) beginOp(name string, op int) {
	r.root = len(r.spans)
	r.spans = append(r.spans, span{Name: name, Conn: r.conn, Op: op, Parent: -1, Start: r.now()})
}

// endOp closes the root span and returns its duration.
func (r *recorder) endOp() time.Duration {
	s := &r.spans[r.root]
	s.End = r.now()
	return time.Duration(s.End - s.Start)
}

// call runs f as a child span of the open root.
func (r *recorder) call(name string, f func() error) error {
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Conn: r.conn, Op: r.spans[r.root].Op, Parent: r.root, Start: r.now()})
	err := f()
	r.spans[i].End = r.now()
	return err
}

// layers is the per-op account of a replay.
type layers struct {
	ops     int                      // "op" roots
	opTotal time.Duration            // their summed duration
	self    map[string]time.Duration // self time by span name
}

func aggregate(recs []*recorder) layers {
	a := layers{self: make(map[string]time.Duration)}
	for _, r := range recs {
		for _, s := range r.spans {
			d := time.Duration(s.End - s.Start)
			a.self[s.Name] += d
			switch {
			case s.Parent >= 0:
				a.self[r.spans[s.Parent].Name] -= d
			case s.Name == "op":
				a.ops++
				a.opTotal += d
			}
		}
	}
	return a
}

func (a layers) us(name string) float64 { return float64(a.self[name]) / 1e3 / float64(a.ops) }
func (a layers) ms(name string) float64 { return float64(a.self[name]) / 1e6 / float64(a.ops) }

// layerNs is the traced time per op spent inside layer calls: the op
// roots minus their own glue.
func (a layers) layerNs() float64 { return float64(a.opTotal-a.self["op"]) / float64(a.ops) }

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json's
// order. A traced run prints all of them, 0 where its workload does not
// run the layer.
var perLayer = []struct{ name, unit string }{
	{"dsl.parse_us_per_op", "us"},
	{"dsl.body_kb_per_op", "KB"},
	{"model.compile_us_per_op", "us"},
	{"service.digest_us_per_op", "us"},
	{"service.hit_us_per_op", "us"},
	{"service.unattributed_us_per_op", "us"},
	{"service.hit_wait_us_per_op", "us"},
	{"service.hit_ratio", "ratio"},
	{"service.render_us_per_op", "us"},
	{"core.synthesize_us_per_op", "us"},
	{"core.feasible_ratio", "ratio"},
	{"core.population_synthesize_s", "s"},
	{"search.us_per_op", "us"},
	{"search.skipped_ratio", "ratio"},
	{"petri.us_per_op", "us"},
	{"petri.capped_ratio", "ratio"},
	{"sim.run_ms_per_op", "ms"},
	{"sim.build_nodes_ms_per_op", "ms"},
	{"sim.settlement_ms_per_op", "ms"},
	{"sim.messages_per_op", "count"},
	{"sim.messages_per_s", "1/s"},
	{"vlog.append_us_per_op", "us"},
	{"vlog.proof_ms_per_op", "ms"},
	{"vlog.consistency_ms_per_op", "ms"},
	{"vlog.verify_us_per_op", "us"},
	{"vlog.size", "count"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

// finishTrace turns a replay into the traced run's result: the
// per-layer values plus the trace's own overhead and coverage against
// the untraced window. It writes the spans out.
func finishTrace(cfg config, workload string, recs []*recorder, untraced, replay *loop, vals map[string]float64, out *outcome) (*outcome, error) {
	a := aggregate(recs)
	if a.ops == 0 || len(untraced.lat) == 0 {
		return nil, errors.New("traced run completed no ops")
	}
	var total time.Duration
	for _, d := range untraced.lat {
		total += d
	}
	mean := float64(total) / float64(len(untraced.lat))
	vals["trace.overhead"] = float64(a.opTotal) / float64(a.ops) / mean
	vals["trace.coverage"] = a.layerNs() / mean
	if workload != "population-sim" {
		vals["service.unattributed_us_per_op"] = (mean - a.layerNs()) / 1e3
	}
	m := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		m[p.name] = metric{vals[p.name], p.unit}
	}
	path, err := writeSpans(cfg, workload, recs)
	if err != nil {
		return nil, err
	}
	failed := untraced.failed + replay.failed
	out.result = result{
		Correct:   out.Correct && failed == 0,
		Attempted: int64(len(untraced.lat) + len(replay.lat)),
		Failed:    failed,
		Metrics:   m,
	}
	out.info["replay_ops"] = a.ops
	out.info["spans"] = path
	if replay.firstErr != nil {
		out.info["first_replay_error"] = replay.firstErr.Error()
	}
	return out, nil
}

// writeSpans writes every span as one JSON line.
func writeSpans(cfg config, workload string, recs []*recorder) (string, error) {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// parseCompile is the service's dsl.LoadReader split into its two public
// halves: dsl.Parse (lexing and parsing) and dsl.Compile (building the
// model and validating it, which runs (*model.Problem).Compile; the
// analyze path's own p.Compile() then finds the tables built).
func parseCompile(rec *recorder, body []byte) (*model.Problem, error) {
	var f *dsl.File
	err := rec.call("dsl.parse", func() (err error) {
		f, err = dsl.Parse(string(body))
		return err
	})
	if err != nil {
		return nil, err
	}
	var p *model.Problem
	err = rec.call("model.compile", func() (err error) {
		p, err = dsl.Compile(f)
		return err
	})
	return p, err
}

// hitAndDigest is the analyze path after parsing, on a resident key:
// (*Service).Analyze, which must answer from the cache, then the digest
// the handler puts in X-Trustd-Digest.
func hitAndDigest(rec *recorder, svc *service.Service, p *model.Problem) error {
	var disposition string
	err := rec.call("service.hit", func() error {
		_, d, err := svc.Analyze(context.Background(), p, service.AnalyzeOptions{})
		disposition = string(d)
		return err
	})
	if err != nil {
		return err
	}
	if disposition != "hit" {
		return fmt.Errorf("in-process analyze served %q, want hit", disposition)
	}
	return rec.call("service.digest", func() error {
		service.ProblemDigest(p)
		return nil
	})
}

func traceHot(cfg config, d *daemon, pool [][]byte, l *loop, hits int, out *outcome) (*outcome, error) {
	streams := hotStreams(cfg.seed)
	recs := newRecorders(conns)
	var bodyBytes [conns]int
	rl := closedLoop(cfg.window, l.perConn, func(c, i int) (time.Duration, error) {
		rec := recs[c]
		req := hotRequest(pool, streams[c], i)
		bodyBytes[c] += len(req.body)
		rec.beginOp("op", i)
		p, err := parseCompile(rec, req.body)
		if err == nil {
			err = hitAndDigest(rec, d.svc, p)
		}
		return rec.endOp(), err
	})
	a := aggregate(recs)
	vals := map[string]float64{
		"dsl.parse_us_per_op":      a.us("dsl.parse"),
		"dsl.body_kb_per_op":       float64(sum(bodyBytes[:])) / 1024 / float64(a.ops),
		"model.compile_us_per_op":  a.us("model.compile"),
		"service.hit_us_per_op":    a.us("service.hit"),
		"service.digest_us_per_op": a.us("service.digest"),
		"service.hit_ratio":        float64(hits) / float64(len(l.lat)),
	}
	return finishTrace(cfg, "serve-hot", recs, l, rl, vals, out)
}

// coldCounts are one replay goroutine's outcome counts.
type coldCounts struct {
	bytes, synthesized, feasible  int
	cross, skipped, petri, capped int
	messages                      int
}

func (k *coldCounts) add(o coldCounts) {
	k.bytes += o.bytes
	k.synthesized += o.synthesized
	k.feasible += o.feasible
	k.cross += o.cross
	k.skipped += o.skipped
	k.petri += o.petri
	k.capped += o.capped
	k.messages += o.messages
}

func traceCold(cfg config, streams [conns]*coldStream, bodies [conns][][]byte, l *loop, hits int, out *outcome) (*outcome, error) {
	recs := newRecorders(conns)
	var counts [conns]coldCounts
	var logs [conns]*vlog.Log
	for c := range logs {
		logs[c] = vlog.NewRetaining()
	}
	rl := closedLoop(cfg.window, l.perConn, func(c, i int) (time.Duration, error) {
		rec := recs[c]
		rec.beginOp("op", i)
		body, err := coldReplay(rec, streams[c].at(i), logs[c], &counts[c])
		lat := rec.endOp()
		if err == nil && !bytes.Equal(body, bodies[c][i]) {
			err = errors.New("replayed JSON body differs from the service's")
		}
		return lat, err
	})
	var k coldCounts
	for _, ck := range counts {
		k.add(ck)
	}
	a := aggregate(recs)
	vals := map[string]float64{
		"dsl.parse_us_per_op":       a.us("dsl.parse"),
		"dsl.body_kb_per_op":        float64(k.bytes) / 1024 / float64(a.ops),
		"model.compile_us_per_op":   a.us("model.compile"),
		"service.digest_us_per_op":  a.us("service.digest"),
		"service.hit_ratio":         float64(hits) / float64(len(l.lat)),
		"service.render_us_per_op":  a.us("service.render"),
		"core.synthesize_us_per_op": a.us("core.synthesize"),
		"core.feasible_ratio":       ratio(k.feasible, k.synthesized),
		"search.us_per_op":          a.us("search"),
		"search.skipped_ratio":      ratio(k.skipped, k.cross),
		"petri.us_per_op":           a.us("petri"),
		"petri.capped_ratio":        ratio(k.capped, k.petri),
		"sim.run_ms_per_op":         a.ms("sim.run"),
		"sim.messages_per_op":       float64(k.messages) / float64(a.ops),
		"sim.messages_per_s":        float64(k.messages) / a.self["sim.run"].Seconds(),
		"vlog.append_us_per_op":     a.us("vlog.append"),
	}
	out.info["crosscheck_ops"] = k.cross
	return finishTrace(cfg, "serve-cold", recs, l, rl, vals, out)
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// coldReplay replays one serve-cold request through the layers the
// service's miss path runs, in its order, and returns the JSON body it
// renders (which must equal the service's).
func coldReplay(rec *recorder, cs coldSpec, lg *vlog.Log, k *coldCounts) ([]byte, error) {
	k.bytes += len(cs.req.body)
	p, err := parseCompile(rec, cs.req.body)
	if err != nil {
		return nil, err
	}
	var digest [2]uint64
	rec.call("service.digest", func() error {
		digest = service.ProblemDigest(p)
		return nil
	})
	var plan *core.Plan
	if err := rec.call("core.synthesize", func() (err error) {
		plan, err = core.Synthesize(p)
		return err
	}); err != nil {
		return nil, err
	}
	k.synthesized++
	if plan.Feasible {
		k.feasible++
	}
	var cc *service.CrossCheckInfo
	if cs.cross {
		if cc, err = crossCheck(rec, p, plan.Feasible, k); err != nil {
			return nil, err
		}
	}
	var run *sim.Result
	if plan.Feasible {
		if err := rec.call("sim.run", func() (err error) {
			run, err = sim.Run(plan, sim.Options{Seed: cs.simSeed, VLog: true})
			return err
		}); err != nil {
			return nil, err
		}
		if !run.Completed() {
			return nil, errors.New("replayed simulation did not complete")
		}
		k.messages += run.Messages
	}
	var body, text []byte
	if err := rec.call("service.render", func() (err error) {
		body, text, err = renderResult(p, plan, cc, run)
		return err
	}); err != nil {
		return nil, err
	}
	rec.call("vlog.append", func() error {
		lg.Append(analysisRecord(digest, body, text))
		return nil
	})
	return body, nil
}

// crossCheck is the service's crosscheck stage: both exhaustive-search
// semantics and Petri coverability, skipped above trustd's exchange cap.
func crossCheck(rec *recorder, p *model.Problem, graphFeasible bool, k *coldCounts) (*service.CrossCheckInfo, error) {
	opts := trustdOptions()
	k.cross++
	if len(p.Exchanges) > opts.MaxSearchExchanges {
		k.skipped++
		return &service.CrossCheckInfo{SearchSkipped: true, Agreement: true}, nil
	}
	cc := &service.CrossCheckInfo{}
	if err := rec.call("search", func() error {
		assets, err := search.Feasible(p, search.ModeAssets)
		if err != nil {
			return err
		}
		strong, err := search.Feasible(p, search.ModeStrong)
		if err != nil {
			return err
		}
		cc.AssetsFeasible, cc.StrongFeasible = assets.Feasible, strong.Feasible
		return nil
	}); err != nil {
		return nil, err
	}
	if err := rec.call("petri", func() error {
		enc, err := petri.FromProblem(p)
		if err != nil {
			return err
		}
		cov := enc.Completable(opts.PetriBudget)
		cc.PetriFound, cc.PetriCapped = cov.Found, cov.Capped
		return nil
	}); err != nil {
		return nil, err
	}
	k.petri++
	if cc.PetriCapped {
		k.capped++
	}
	cc.Agreement = !graphFeasible || cc.AssetsFeasible
	return cc, nil
}

// renderResult builds both response bodies as the service does for a
// request with default options plus simulate (and crosscheck when cc is
// set).
func renderResult(p *model.Problem, plan *core.Plan, cc *service.CrossCheckInfo, run *sim.Result) ([]byte, []byte, error) {
	trusted := 0
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			trusted++
		}
	}
	res := &service.Result{
		Problem: service.ProblemInfo{
			Name:       p.Name,
			Principals: len(p.Parties) - trusted,
			Trusted:    trusted,
			Exchanges:  len(p.Exchanges) / 2,
		},
		Feasible:   plan.Feasible,
		CrossCheck: cc,
	}
	if plan.Feasible {
		res.Sequence = plan.ExecutionSequence()
		for _, st := range plan.Steps {
			res.Steps = append(res.Steps, st.String())
		}
	} else {
		res.Impasse = plan.Reduction.Impasse()
	}
	if run != nil {
		res.Simulation = &service.SimulationInfo{
			Completed:      run.Completed(),
			Messages:       run.Messages,
			Duration:       int64(run.Duration),
			Summary:        run.Summary(),
			SettlementRoot: run.SettlementRoot,
		}
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	text, err := service.RenderText(plan, service.RenderOptions{})
	if err != nil {
		return nil, nil, err
	}
	return append(body, '\n'), []byte(text), nil
}

// analysisRecord has the shape of the service's log leaf: a versioned
// prefix, two digests and the SHA-256 of both bodies. The service's
// second digest is its request key, which is internal; the problem
// digest stands in for it.
func analysisRecord(digest [2]uint64, body, text []byte) []byte {
	const prefix = "trustd-analysis-v1\x00"
	d := service.FormatDigest(digest)
	b := make([]byte, 0, len(prefix)+2*len(d)+2+2*sha256.Size)
	b = append(append(append(b, prefix...), d...), 0)
	b = append(append(b, d...), 0)
	j := sha256.Sum256(body)
	t := sha256.Sum256(text)
	return append(append(b, j[:]...), t[:]...)
}

func traceAudit(cfg config, sh auditShape, d *daemon, specs [][]byte, l *loop, analyzeHalf time.Duration, hits int, out *outcome) (*outcome, error) {
	// A replica of the daemon's log, which is internal to the service:
	// the same size, leaves of the same length, signed by a key of the
	// same kind.
	lg := vlog.NewRetaining()
	leaf := make([]byte, len(analysisRecord([2]uint64{}, nil, nil)))
	for i := 0; i < sh.leaves; i++ {
		binary.BigEndian.PutUint64(leaf, uint64(i))
		lg.Append(leaf)
	}
	signer, err := vlog.NewSigner()
	if err != nil {
		return nil, err
	}
	root, size, key := lg.Root(), lg.Size(), signer.PublicKey()

	streams := auditStreams(cfg.seed, sh)
	recs := newRecorders(conns)
	var bodyBytes [conns]int
	rl := closedLoop(cfg.window, l.perConn, func(c, i int) (time.Duration, error) {
		rec := recs[c]
		op := streams[c].at(i)
		bodyBytes[c] += len(specs[op.spec])
		rec.beginOp("op", i)
		p, err := parseCompile(rec, specs[op.spec])
		if err == nil {
			err = hitAndDigest(rec, d.svc, p)
		}
		var doc []byte
		if err == nil {
			name, build := "vlog.proof", func() (*vlog.Envelope, error) {
				return vlog.NewMembershipEnvelope(lg, "trustd-analysis", uint64(op.spec), size, signer)
			}
			if op.from > 0 {
				name, build = "vlog.consistency", func() (*vlog.Envelope, error) {
					return vlog.NewConsistencyEnvelope(lg, "trustd-analysis", op.from, size, signer)
				}
			}
			err = rec.call(name, func() error {
				e, err := build()
				if err != nil {
					return err
				}
				doc, err = e.MarshalIndent()
				return err
			})
		}
		if err == nil {
			err = rec.call("vlog.verify", func() error {
				e, err := vlog.ParseEnvelope(doc)
				if err != nil {
					return err
				}
				return e.VerifyAgainst(&root, key)
			})
		}
		return rec.endOp(), err
	})
	a := aggregate(recs)
	vals := map[string]float64{
		"dsl.parse_us_per_op":        a.us("dsl.parse"),
		"dsl.body_kb_per_op":         float64(sum(bodyBytes[:])) / 1024 / float64(a.ops),
		"model.compile_us_per_op":    a.us("model.compile"),
		"service.digest_us_per_op":   a.us("service.digest"),
		"service.hit_us_per_op":      a.us("service.hit"),
		"service.hit_wait_us_per_op": float64(analyzeHalf)/1e3/float64(len(l.lat)) - a.us("service.hit"),
		"service.hit_ratio":          float64(hits) / float64(len(l.lat)),
		"vlog.proof_ms_per_op":       a.ms("vlog.proof"),
		"vlog.consistency_ms_per_op": a.ms("vlog.consistency"),
		"vlog.verify_us_per_op":      a.us("vlog.verify"),
		"vlog.size":                  float64(out.info["vlog_size_end"].(uint64)),
	}
	return finishTrace(cfg, "serve-audit", recs, l, rl, vals, out)
}

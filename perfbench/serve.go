package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"trustseq/internal/service"
	"trustseq/internal/vlog"
)

// Response headers the checks read.
const (
	cacheHeader   = "X-Trustd-Cache"
	digestHeader  = "X-Trustd-Digest"
	logRootHeader = "X-Trustd-Log-Root"
)

// serveHot measures the hit path: every request re-posts one of
// hotSpecs resident specs and must be answered from the cache with the
// bytes its warm-up returned.
func serveHot(cfg config) (*outcome, error) {
	pool, err := hotPool(cfg.seed)
	if err != nil {
		return nil, err
	}
	warm := make([][]byte, len(pool))
	d, setups, err := setUp(func(d *daemon) error {
		for j, body := range pool {
			r, err := d.do(0, http.MethodPost, "/v1/analyze", body)
			if err != nil {
				return err
			}
			if r.status != http.StatusOK || r.header.Get(cacheHeader) != "miss" {
				return fmt.Errorf("warm-up of spec %d: status %d, cache %q", j, r.status, r.header.Get(cacheHeader))
			}
			warm[j] = r.body
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	var hits [conns]int
	streams := hotStreams(cfg.seed)
	l := closedLoop(cfg.window, nil, func(c, i int) (time.Duration, error) {
		req := hotRequest(pool, streams[c], i)
		start := time.Now()
		r, err := d.do(c, req.method, req.path, req.body)
		lat := time.Since(start)
		if err != nil {
			return lat, err
		}
		if r.header.Get(cacheHeader) == "hit" {
			hits[c]++
		}
		j := streams[c].at(i)
		switch {
		case r.status != http.StatusOK:
			return lat, fmt.Errorf("spec %d: status %d", j, r.status)
		case r.header.Get(cacheHeader) != "hit":
			return lat, fmt.Errorf("spec %d served %q, want hit", j, r.header.Get(cacheHeader))
		case !bytes.Equal(r.body, warm[j]):
			return lat, fmt.Errorf("spec %d: body differs from its warm-up body", j)
		}
		return lat, nil
	})
	out := &outcome{result: endToEnd(setups, l), info: windowInfo(setups, l)}
	if !cfg.trace {
		return out, nil
	}
	return traceHot(cfg, d, pool, l, sum(hits[:]), out)
}

// coldSetup is how many cold analyses set-up runs: enough to fill the
// 512-entry cache and keep evicting, so the window starts in the steady
// state of a long-running daemon.
const coldSetup = 1500

// serveCold measures the write side: every request is a never-seen
// spec, so each one runs the engines, renders, inserts into the LRU
// (evicting), deposits a base plan and appends to the log.
func serveCold(cfg config) (*outcome, error) {
	setup, err := newColdStream(cfg.seed, coldSetupStream, coldSetup)
	if err != nil {
		return nil, err
	}
	var streams [conns]*coldStream
	for c := range streams {
		if streams[c], err = newColdStream(cfg.seed, c, coldMarkets); err != nil {
			return nil, err
		}
	}
	d, setups, err := setUp(func(d *daemon) error {
		for i := 0; i < coldSetup; i++ {
			cs := setup.at(i)
			r, err := d.do(0, cs.req.method, cs.req.path, cs.req.body)
			if err == nil {
				err = checkCold(r, cs)
			}
			if err != nil {
				return fmt.Errorf("set-up request %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	var hits [conns]int
	// The traced replay compares its rendering with the service's.
	var bodies [conns][][]byte
	l := closedLoop(cfg.window, nil, func(c, i int) (time.Duration, error) {
		cs := streams[c].at(i)
		start := time.Now()
		r, err := d.do(c, cs.req.method, cs.req.path, cs.req.body)
		lat := time.Since(start)
		if cfg.trace {
			bodies[c] = append(bodies[c], r.body)
		}
		if err != nil {
			return lat, err
		}
		if r.header.Get(cacheHeader) == "hit" {
			hits[c]++
		}
		return lat, checkCold(r, cs)
	})
	out := &outcome{result: endToEnd(setups, l), info: windowInfo(setups, l)}
	if !cfg.trace {
		return out, nil
	}
	return traceCold(cfg, streams, bodies, l, sum(hits[:]), out)
}

// checkCold checks one serve-cold reply: a 200 miss whose simulated plan
// completed, and whose crosscheck, when asked for, agrees with the graph
// verdict without reaching the Petri budget.
func checkCold(r reply, cs coldSpec) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if got := r.header.Get(cacheHeader); got != "miss" {
		return fmt.Errorf("served %q, want miss", got)
	}
	var res service.Result
	if err := json.Unmarshal(r.body, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if res.Feasible && (res.Simulation == nil || !res.Simulation.Completed) {
		return errors.New("the feasible plan's simulation did not complete")
	}
	if cs.cross {
		switch {
		case res.CrossCheck == nil:
			return errors.New("crosscheck missing")
		case !res.CrossCheck.Agreement:
			return errors.New("crosscheck disagrees with the graph verdict")
		case res.CrossCheck.PetriCapped:
			return errors.New("crosscheck reached the Petri budget")
		}
	}
	return nil
}

// serveAudit measures the README audit flow at a fixed log size.
func serveAudit(cfg config) (*outcome, error) { return runAudit(cfg, auditDefault) }

// runAudit is serveAudit for any log shape (the tests use a small one).
// Set-up appends sh.leaves analyses one at a time on one connection, so
// spec k is leaf k and the root at every size is known from the
// anchors; the window re-posts resident specs only, so it appends
// nothing and the log, and with it proof cost, is the same in every run.
func runAudit(cfg config, sh auditShape) (*outcome, error) {
	specs, err := auditSpecs(cfg.seed, sh)
	if err != nil {
		return nil, err
	}
	roots := make([]vlog.Hash, sh.leaves+1) // roots[k] is the root at log size k
	d, setups, err := setUp(func(d *daemon) error {
		for i, body := range specs {
			r, err := d.do(0, http.MethodPost, "/v1/analyze", body)
			if err != nil {
				return err
			}
			if r.status != http.StatusOK || r.header.Get(cacheHeader) != "miss" {
				return fmt.Errorf("set-up analysis %d: status %d, cache %q", i, r.status, r.header.Get(cacheHeader))
			}
			size, root, err := parseAnchor(r.header.Get(logRootHeader))
			if err != nil {
				return err
			}
			if size != uint64(i+1) {
				return fmt.Errorf("log size %d after %d analyses", size, i+1)
			}
			roots[size] = root
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	key, before, err := logState(d)
	if err != nil {
		return nil, err
	}

	var hits [conns]int
	var analyzeHalf [conns]time.Duration
	streams := auditStreams(cfg.seed, sh)
	l := closedLoop(cfg.window, nil, func(c, i int) (time.Duration, error) {
		op := streams[c].at(i)
		start := time.Now()
		r, err := d.do(c, http.MethodPost, "/v1/analyze", specs[op.spec])
		analyzeHalf[c] += time.Since(start)
		if err == nil {
			if r.header.Get(cacheHeader) == "hit" {
				hits[c]++
			}
			err = auditProof(d, c, op, r, key, roots)
		}
		return time.Since(start), err
	})
	_, after, err := logState(d)
	if err != nil {
		return nil, err
	}
	out := &outcome{result: endToEnd(setups, l), info: windowInfo(setups, l)}
	out.info["vlog_size_start"], out.info["vlog_size_end"] = before, after
	if before != after || before != uint64(sh.leaves) {
		out.Correct = false
		out.info["error"] = fmt.Sprintf("log size moved: %d at window start, %d at end, want %d", before, after, sh.leaves)
	}
	if !cfg.trace {
		return out, nil
	}
	return traceAudit(cfg, sh, d, specs, l, analyzeHalf[0]+analyzeHalf[1], sum(hits[:]), out)
}

// auditProof finishes one audit op after its analyze reply: the reply
// must be a hit, and the proof it leads to must verify offline against
// the reply's anchor and the daemon's pinned key, for the right leaf or
// from the right earlier root.
func auditProof(d *daemon, c int, op auditOp, r reply, key string, roots []vlog.Hash) error {
	if r.status != http.StatusOK || r.header.Get(cacheHeader) != "hit" {
		return fmt.Errorf("analyze of spec %d: status %d, cache %q", op.spec, r.status, r.header.Get(cacheHeader))
	}
	anchor := r.header.Get(logRootHeader)
	size, root, err := parseAnchor(anchor)
	if err != nil {
		return err
	}
	path := proofPath(op, r.header.Get(digestHeader))
	p, err := d.do(c, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if p.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, p.status)
	}
	if got := p.header.Get(logRootHeader); got != anchor {
		return fmt.Errorf("log moved between analyze (%s) and proof (%s)", anchor, got)
	}
	env, err := vlog.ParseEnvelope(p.body)
	if err != nil {
		return err
	}
	if err := env.VerifyAgainst(&root, key); err != nil {
		return err
	}
	if op.from > 0 {
		if env.Kind != vlog.KindConsistency || env.FromSize != op.from || env.ToSize != size || env.FromRoot != roots[op.from].String() {
			return fmt.Errorf("consistency proof from %d to %d does not match the pinned history", env.FromSize, env.ToSize)
		}
		return nil
	}
	if env.Kind != vlog.KindMembership || env.Index != uint64(op.spec) || env.TreeSize != size {
		return fmt.Errorf("membership proof for leaf %d of %d, want leaf %d of %d", env.Index, env.TreeSize, op.spec, size)
	}
	return nil
}

// parseAnchor splits an X-Trustd-Log-Root value ("<size>:<root-hex>").
func parseAnchor(v string) (uint64, vlog.Hash, error) {
	s, h, ok := strings.Cut(v, ":")
	if !ok {
		return 0, vlog.Hash{}, fmt.Errorf("malformed log anchor %q", v)
	}
	size, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, vlog.Hash{}, fmt.Errorf("log anchor size: %w", err)
	}
	root, err := vlog.ParseHash(h)
	if err != nil {
		return 0, vlog.Hash{}, fmt.Errorf("log anchor root: %w", err)
	}
	return size, root, nil
}

// logState reads the daemon's signing key and log size from /v1/stats.
func logState(d *daemon) (string, uint64, error) {
	r, err := d.do(0, http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return "", 0, err
	}
	var st struct {
		VLog struct {
			Size      uint64 `json:"size"`
			PublicKey string `json:"public_key"`
		} `json:"vlog"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil {
		return "", 0, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if st.VLog.PublicKey == "" {
		return "", 0, errors.New("the daemon's log is unsigned: no key to pin")
	}
	return st.VLog.PublicKey, st.VLog.Size, nil
}

func sum(v []int) int {
	t := 0
	for _, x := range v {
		t += x
	}
	return t
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"trustseq/internal/cluster"
	"trustseq/internal/sweep"
)

// The cluster response headers. X-Trustd-Cluster explains where an
// analyze request, or a membership proof fetch, was served:
//
//	owner   — this node owns the problem digest on the ring (including
//	          the degenerate single-member ring)
//	proxied — this node forwarded the request to the owner and relayed
//	          its response (X-Trustd-Cluster-Owner names it); the
//	          relayed X-Trustd-Log-Root is the owner's anchor, and the
//	          result's membership proof, fetched through any member,
//	          comes from the owner's log
//	local   — served here without owning: either the request arrived
//	          already forwarded (the hop guard allows exactly one hop,
//	          so ring churn cannot bounce a request forever) or the
//	          owner was unreachable and the node degraded to computing
//	          locally rather than failing
//
// A distributed /v1/sweep answers with X-Trustd-Cluster: distributed
// and X-Trustd-Cluster-Sweep carrying the partition count.
const (
	clusterHeader      = "X-Trustd-Cluster"
	clusterOwnerHeader = "X-Trustd-Cluster-Owner"
	clusterSweepHeader = "X-Trustd-Cluster-Sweep"
	forwardedHeader    = "X-Trustd-Forwarded"
)

// The X-Trustd-Cluster values.
const (
	clusterServedOwner   = "owner"
	clusterServedProxied = "proxied"
	clusterServedLocal   = "local"
	clusterServedDistrib = "distributed"
)

// routeAnalyze routes one analyze request, whose problem digest is
// digest, and counts the outcome in /v1/stats' analyze_* counters. It
// returns true when the response has already been written (the request
// was proxied to its ring owner).
func (s *Service) routeAnalyze(w http.ResponseWriter, r *http.Request, digest [2]uint64, body []byte) bool {
	switch s.route(w, r, digest, body) {
	case clusterServedOwner:
		s.clusterOwned.Inc()
	case clusterServedProxied:
		s.clusterProxied.Inc()
		return true
	default:
		s.clusterLocal.Inc()
	}
	return false
}

// route decides where a request about the problem digest is served:
// an analyze of it, or a fetch of its membership proof, which only the
// node whose log holds the analysis can answer. It sets X-Trustd-Cluster
// to the outcome and returns it; for clusterServedProxied the owner's
// response has been relayed, otherwise the caller serves the request
// here.
func (s *Service) route(w http.ResponseWriter, r *http.Request, digest [2]uint64, body []byte) string {
	served := clusterServedLocal
	owner, ok := s.cluster.Owner(digest)
	switch {
	case !ok || owner == s.cluster.Self():
		// Ownership wins over the forwarded flag: the owner of a
		// forwarded request reports "owner", so the smoke test can
		// assert the proxy actually landed on the right node.
		served = clusterServedOwner
	case r.Header.Get(forwardedHeader) != "":
		// Hop guard: a forwarded request is served where it lands even
		// if ring churn says someone else owns it now. One hop, ever —
		// two nodes with divergent rings must not bounce a request
		// between them.
	case s.proxy(w, r, owner, body):
		return clusterServedProxied
	default:
		// The owner is unreachable (gossip hasn't caught up yet):
		// serve locally rather than fail. The ring is a cache-locality
		// optimization, never a correctness boundary.
	}
	w.Header().Set(clusterHeader, served)
	return served
}

// proxy replays the request, with body (nil for a GET), to the owner
// and relays its response verbatim, marking the hop so the owner serves
// it no matter what its own ring says. False means the transport failed
// and the caller should fall back to serving it locally; an error
// *response* from the owner is relayed as-is (it answered — its verdict
// stands).
func (s *Service) proxy(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	u := "http://" + owner + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return false
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Trustd-Base", requestIDHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(forwardedHeader, s.cluster.Self())
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Trustd-Cache", "X-Trustd-Digest", "X-Trustd-Incremental", logRootHeader, "Server-Timing"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(clusterHeader, clusterServedProxied)
	w.Header().Set(clusterOwnerHeader, owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// distributeSweep partitions a sweep across the ring's live members:
// one contiguous index range per member, forwarded as a ranged
// /v1/sweep, partial reports merged. Because each problem's seed
// depends only on (config, index), the merged answer is byte-identical
// to a single-node run (elapsed_ms aside) no matter where the ranges
// ran. It returns false — run locally — when the ring has no peers. A
// member that fails its range has the range re-run locally: losing a
// node costs latency, never changes the answer.
func (s *Service) distributeSweep(ctx context.Context, w http.ResponseWriter, req sweepRequest, cfg sweep.Config) bool {
	members := s.cluster.LiveMembers()
	if len(members) < 2 {
		return false
	}
	ranges := sweep.Partition(cfg.Normalized().N, len(members))
	if len(ranges) < 2 {
		return false
	}
	start := time.Now()
	parts := make([]*sweep.Report, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int, member string, lo, hi int) {
			defer wg.Done()
			if member == s.cluster.Self() {
				parts[i] = sweep.RunContextRange(ctx, cfg, lo, hi)
				return
			}
			rep, err := s.forwardSweepRange(ctx, member, req, lo, hi)
			if err != nil {
				s.clusterSweepFallback.Inc()
				rep = sweep.RunContextRange(ctx, cfg, lo, hi)
			}
			parts[i] = rep
		}(i, members[i], ranges[i][0], ranges[i][1])
	}
	wg.Wait()
	merged := sweep.Merge(cfg, parts...)
	s.clusterSweepDistributed.Inc()
	w.Header().Set(clusterHeader, clusterServedDistrib)
	w.Header().Set(clusterSweepHeader, strconv.Itoa(len(ranges)))
	writeJSON(w, http.StatusOK, sweepResponse{
		Completed:  merged.Completed,
		Canceled:   merged.Canceled,
		Violations: merged.Stats.Violations(),
		Stats:      merged.Stats,
		Summary:    merged.Summary(),
		ElapsedMS:  time.Since(start).Milliseconds(),
	})
	return true
}

// forwardSweepRange runs indices [lo, hi) of the sweep on a peer and
// rebuilds the partial Report from its response. The forwarded request
// carries the hop marker, so the peer runs its range instead of trying
// to distribute again.
func (s *Service) forwardSweepRange(ctx context.Context, addr string, req sweepRequest, lo, hi int) (*sweep.Report, error) {
	req.RangeLo, req.RangeHi = &lo, &hi
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, s.cluster.Self())
	resp, err := s.peerClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("%s: status %d: %s", addr, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var sr sweepResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&sr); err != nil {
		return nil, err
	}
	// A ranged response lists only completed results, so Done is all
	// true; Merge recomputes stats and spots missing indices itself.
	part := &sweep.Report{
		Results:   sr.Results,
		Done:      make([]bool, len(sr.Results)),
		Completed: len(sr.Results),
		Canceled:  sr.Canceled,
	}
	for i := range part.Done {
		part.Done[i] = true
	}
	return part, nil
}

// clusterStats is the /v1/stats block present only in cluster mode:
// the gossip node's membership snapshot plus the service-side routing
// counters.
type clusterStats struct {
	cluster.NodeStatus
	AnalyzeOwner        int64 `json:"analyze_owner"`
	AnalyzeProxied      int64 `json:"analyze_proxied"`
	AnalyzeLocal        int64 `json:"analyze_local"`
	SweepsDistributed   int64 `json:"sweeps_distributed"`
	SweepRangeFallbacks int64 `json:"sweep_range_fallbacks"`
}

func (s *Service) clusterStatsSnapshot() *clusterStats {
	if s.cluster == nil {
		return nil
	}
	return &clusterStats{
		NodeStatus:          s.cluster.Status(),
		AnalyzeOwner:        s.clusterOwned.Value(),
		AnalyzeProxied:      s.clusterProxied.Value(),
		AnalyzeLocal:        s.clusterLocal.Value(),
		SweepsDistributed:   s.clusterSweepDistributed.Value(),
		SweepRangeFallbacks: s.clusterSweepFallback.Value(),
	}
}

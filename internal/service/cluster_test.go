package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trustseq/internal/cluster"
	"trustseq/internal/obs"
	"trustseq/internal/vlog"
)

// clusterTestNode is one trustd-shaped process: a gossip node and a
// Service sharing one loopback listener, exactly as cmd/trustd wires
// them.
type clusterTestNode struct {
	svc  *Service
	node *cluster.Node
	srv  *http.Server
	addr string
}

func startClusterNode(t *testing.T, opts Options) *clusterTestNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node, err := cluster.NewNode(cluster.Config{Self: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	opts.Cluster = node
	if opts.Telemetry == nil {
		opts.Telemetry = &obs.Telemetry{Metrics: obs.NewRegistry()}
	}
	svc := New(opts)
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	tn := &clusterTestNode{svc: svc, node: node, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() { srv.Close() })
	return tn
}

// formCluster joins the nodes through explicit sync rounds (no timers,
// so the tests stay deterministic) and asserts ring agreement.
func formCluster(t *testing.T, nodes ...*clusterTestNode) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, n := range nodes[1:] {
			if err := n.node.Sync(ctx, nodes[0].addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := nodes[0].node.Ring().Version()
	for _, n := range nodes[1:] {
		if got := n.node.Ring().Version(); got != want {
			t.Fatalf("ring versions diverge: %x vs %x", got, want)
		}
	}
}

func postAnalyze(t *testing.T, addr, src string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/analyze", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestClusterAnalyzeRouting: on a converged 3-node ring exactly one
// node owns the problem digest; requests landing anywhere return the
// same body, with X-Trustd-Cluster distinguishing the owner from the
// proxies. A proxied response carries the owner's headers, including
// the log anchor, against which the owner's membership proof verifies.
func TestClusterAnalyzeRouting(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	c := startClusterNode(t, Options{})
	formCluster(t, a, b, c)
	nodes := []*clusterTestNode{a, b, c}

	// The owner answers first, so every proxied response must relay the
	// same anchor: cache hits never grow the log.
	ownerAddr, ok := a.node.Owner(ProblemDigest(mustLoad(t, feasibleSpec)))
	if !ok {
		t.Fatal("no owner on a 3-node ring")
	}
	for i, n := range nodes {
		if n.addr == ownerAddr {
			nodes[0], nodes[i] = nodes[i], nodes[0]
		}
	}

	relayed := []string{"Content-Type", "X-Trustd-Cache", "X-Trustd-Digest", logRootHeader}
	var owners, proxied int
	var ownerHdr http.Header
	var bodies [][]byte
	for _, n := range nodes {
		resp, body := postAnalyze(t, n.addr, feasibleSpec, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", n.addr, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
		switch cl := resp.Header.Get("X-Trustd-Cluster"); cl {
		case "owner":
			owners++
			if n.addr != ownerAddr {
				t.Fatalf("node %s answered as owner; the ring names %s", n.addr, ownerAddr)
			}
			ownerHdr = resp.Header
		case "proxied":
			proxied++
			if got := resp.Header.Get("X-Trustd-Cluster-Owner"); got != ownerAddr {
				t.Fatalf("proxied X-Trustd-Cluster-Owner = %q, want %q", got, ownerAddr)
			}
			for _, h := range relayed {
				if resp.Header.Get(h) == "" {
					t.Fatalf("proxied response from %s lacks %s", n.addr, h)
				}
				if h != "X-Trustd-Cache" && resp.Header.Get(h) != ownerHdr.Get(h) {
					t.Fatalf("proxied %s = %q, owner's = %q", h, resp.Header.Get(h), ownerHdr.Get(h))
				}
			}
		default:
			t.Fatalf("node %s: X-Trustd-Cluster = %q", n.addr, cl)
		}
	}
	if owners != 1 || proxied != 2 {
		t.Fatalf("owners = %d, proxied = %d; want 1 and 2", owners, proxied)
	}
	for _, h := range relayed {
		if ownerHdr.Get(h) == "" {
			t.Fatalf("owner response lacks %s", h)
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("node %d body differs from node 0", i)
		}
	}
	// Every proxied request filled exactly one cache: the owner's.
	for _, n := range nodes {
		want := 0
		if n.addr == ownerAddr {
			want = 1
		}
		if got := n.svc.CacheLen(); got != want {
			t.Fatalf("node %s cache holds %d entries, want %d", n.addr, got, want)
		}
	}
	// Second request through a proxy replays the owner's cache.
	resp, _ := postAnalyze(t, nodes[1].addr, feasibleSpec, nil)
	if got := resp.Header.Get("X-Trustd-Cache"); got != "hit" {
		t.Fatalf("re-request through proxy: X-Trustd-Cache = %q, want hit", got)
	}

	// The relayed anchor is the owner's: a membership proof fetched from
	// the owner verifies against it.
	size, root := parseRootHeader(t, resp.Header.Get(logRootHeader))
	pr, err := http.Get("http://" + ownerAddr + "/v1/proof/" + resp.Header.Get("X-Trustd-Digest"))
	if err != nil {
		t.Fatal(err)
	}
	doc := readAll(t, pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("owner proof fetch: status %d: %s", pr.StatusCode, doc)
	}
	e, err := vlog.ParseEnvelope(doc)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := vlog.ParseHash(e.LeafHash)
	if err != nil {
		t.Fatal(err)
	}
	path := make([]vlog.Hash, len(e.Path))
	for i, h := range e.Path {
		if path[i], err = vlog.ParseHash(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := vlog.VerifyMembership(root, e.Index, size, leaf, path); err != nil {
		t.Fatalf("owner's proof fails against the relayed anchor %d:%s: %v", size, root, err)
	}
}

// TestClusterProofThroughNonOwner: only the owner's log holds an
// analysis, so a membership proof fetched through any other member is
// proxied to it. The relayed envelope verifies offline against the
// relayed anchor and the owner's key from its /v1/stats. A consistency
// proof names no digest and stays with the member asked.
func TestClusterProofThroughNonOwner(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	c := startClusterNode(t, Options{})
	formCluster(t, a, b, c)
	ownerAddr, ok := a.node.Owner(ProblemDigest(mustLoad(t, feasibleSpec)))
	if !ok {
		t.Fatal("no owner on a 3-node ring")
	}
	resp, body := postAnalyze(t, a.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
	}
	digest := resp.Header.Get("X-Trustd-Digest")

	stats, err := http.Get("http://" + ownerAddr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		VLog struct {
			PublicKey string `json:"public_key"`
		} `json:"vlog"`
	}
	err = json.NewDecoder(stats.Body).Decode(&sr)
	stats.Body.Close()
	if err != nil || sr.VLog.PublicKey == "" {
		t.Fatalf("owner's /v1/stats has no signing key: %+v, %v", sr, err)
	}

	proxied := 0
	for _, n := range []*clusterTestNode{a, b, c} {
		pr, err := http.Get("http://" + n.addr + "/v1/proof/" + digest)
		if err != nil {
			t.Fatal(err)
		}
		doc := readAll(t, pr.Body)
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("proof via %s: status %d: %s", n.addr, pr.StatusCode, doc)
		}
		want := "owner"
		if n.addr != ownerAddr {
			want = "proxied"
			proxied++
			if got := pr.Header.Get(clusterOwnerHeader); got != ownerAddr {
				t.Fatalf("proof via %s: %s = %q, want %q", n.addr, clusterOwnerHeader, got, ownerAddr)
			}
		}
		if got := pr.Header.Get(clusterHeader); got != want {
			t.Fatalf("proof via %s: %s = %q, want %q", n.addr, clusterHeader, got, want)
		}
		size, root := parseRootHeader(t, pr.Header.Get(logRootHeader))
		e, err := vlog.ParseEnvelope(doc)
		if err != nil {
			t.Fatal(err)
		}
		if e.TreeSize != size {
			t.Fatalf("proof via %s: envelope tree size %d, relayed anchor size %d", n.addr, e.TreeSize, size)
		}
		if err := e.VerifyAgainst(&root, sr.VLog.PublicKey); err != nil {
			t.Fatalf("proof via %s fails against the relayed anchor and the owner's key: %v", n.addr, err)
		}
	}
	if proxied != 2 {
		t.Fatalf("%d of 3 proof fetches proxied, want 2", proxied)
	}

	for _, n := range []*clusterTestNode{a, b, c} {
		pr, err := http.Get("http://" + n.addr + "/v1/proof/consistency?from=1")
		if err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		want := http.StatusBadRequest // a non-owner's log is empty
		if n.addr == ownerAddr {
			want = http.StatusOK
		}
		if pr.StatusCode != want || pr.Header.Get(clusterHeader) != "" {
			t.Fatalf("consistency via %s: status %d, %s %q; want %d, served locally",
				n.addr, pr.StatusCode, clusterHeader, pr.Header.Get(clusterHeader), want)
		}
	}
}

// TestClusterHopGuardNoLoop: a request that already carries the
// forwarded marker is served where it lands — even by a node that is
// certain someone else owns it — so divergent rings can never bounce a
// request between nodes.
func TestClusterHopGuardNoLoop(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)

	// Find a node that does NOT own the spec's digest.
	p := mustLoad(t, feasibleSpec)
	owner, ok := a.node.Owner(ProblemDigest(p))
	if !ok {
		t.Fatal("no owner on a 2-node ring")
	}
	nonOwner := a
	if owner == a.addr {
		nonOwner = b
	}
	resp, body := postAnalyze(t, nonOwner.addr, feasibleSpec,
		map[string]string{"X-Trustd-Forwarded": "test-injector"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "local" {
		t.Fatalf("X-Trustd-Cluster = %q, want local (hop guard)", got)
	}
	// The non-owner computed and cached it locally: one hop, no proxy.
	if got := nonOwner.svc.CacheLen(); got != 1 {
		t.Fatalf("non-owner cache holds %d entries, want 1", got)
	}
}

// TestClusterAnalyzeOwnerDownFallsBackLocal: when the owner is down but
// gossip still lists it, the node a client reached computes the answer
// itself. The body is the one a single-node daemon gives, and the
// fallback is counted in /v1/stats.
func TestClusterAnalyzeOwnerDownFallsBackLocal(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)
	owner, nonOwner := a, b
	if addr, ok := a.node.Owner(ProblemDigest(mustLoad(t, feasibleSpec))); !ok {
		t.Fatal("no owner on a 2-node ring")
	} else if addr == b.addr {
		owner, nonOwner = b, a
	}
	owner.srv.Close() // dead, but still on the survivor's ring

	single := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(single.Close)
	_, want := postSpec(t, single.URL+"/v1/analyze", feasibleSpec)

	resp, body := postAnalyze(t, nonOwner.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "local" {
		t.Fatalf("X-Trustd-Cluster = %q, want local (owner unreachable)", got)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("fallback body differs from a single node's:\n got: %s\nwant: %s", body, want)
	}

	stats, err := http.Get("http://" + nonOwner.addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Cluster *struct {
			AnalyzeLocal int64 `json:"analyze_local"`
		} `json:"cluster"`
	}
	err = json.NewDecoder(stats.Body).Decode(&sr)
	stats.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cluster == nil || sr.Cluster.AnalyzeLocal != 1 {
		t.Fatalf("cluster stats = %+v, want analyze_local 1", sr.Cluster)
	}
}

// TestClusterSourceHitProxies: a non-owner routes a repeated source by
// its indexed digest, without parsing it, and still proxies it to the
// owner, whose bytes are relayed unchanged.
func TestClusterSourceHitProxies(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)
	owner, nonOwner := a, b
	if addr, ok := a.node.Owner(ProblemDigest(mustLoad(t, feasibleSpec))); !ok {
		t.Fatal("no owner on a 2-node ring")
	} else if addr == b.addr {
		owner, nonOwner = b, a
	}

	_, want := postAnalyze(t, owner.addr, feasibleSpec, nil)
	for i := 0; i < 2; i++ {
		resp, body := postAnalyze(t, nonOwner.addr, feasibleSpec, nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Trustd-Cluster") != "proxied" {
			t.Fatalf("request %d: status %d, X-Trustd-Cluster %q", i, resp.StatusCode, resp.Header.Get("X-Trustd-Cluster"))
		}
		if !bytes.Equal(body, want) || resp.Header.Get("X-Trustd-Cache") != "hit" {
			t.Fatalf("request %d: cache %q, relayed body differs from the owner's", i, resp.Header.Get("X-Trustd-Cache"))
		}
		// The first request is parsed (and indexed); the repeat is not.
		if got := nonOwner.svc.sourceHits.Value(); got != int64(i) {
			t.Fatalf("request %d: non-owner source_hits = %d, want %d", i, got, i)
		}
	}
	if got := nonOwner.svc.clusterProxied.Value(); got != 2 {
		t.Fatalf("non-owner proxied %d requests, want 2", got)
	}
	if got := nonOwner.svc.CacheLen(); got != 0 {
		t.Fatalf("non-owner cache holds %d entries, want 0", got)
	}
}

// TestClusterDistributedSweepByteIdentical is the tentpole property at
// the HTTP layer: a sweep distributed over three nodes answers
// byte-identically (elapsed_ms aside) to the same sweep on a
// single-node, cluster-free service.
func TestClusterDistributedSweepByteIdentical(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	c := startClusterNode(t, Options{})
	formCluster(t, a, b, c)

	singleSrv := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(singleSrv.Close)

	const sweepBody = `{"n": 24, "seed": 11, "chaos_runs": 1}`
	post := func(url string) (*http.Response, map[string]any, []byte) {
		resp, err := http.Post(url, "application/json", strings.NewReader(sweepBody))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
		return resp, m, raw
	}

	resp, distributed, _ := post("http://" + a.addr + "/v1/sweep")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed sweep: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "distributed" {
		t.Fatalf("X-Trustd-Cluster = %q, want distributed", got)
	}
	if got := resp.Header.Get("X-Trustd-Cluster-Sweep"); got != "3" {
		t.Fatalf("X-Trustd-Cluster-Sweep = %q, want 3 partitions", got)
	}
	_, local, _ := post(singleSrv.URL + "/v1/sweep")

	// Everything but wall-clock must agree exactly.
	delete(distributed, "elapsed_ms")
	delete(local, "elapsed_ms")
	dj, _ := json.Marshal(distributed)
	lj, _ := json.Marshal(local)
	if !bytes.Equal(dj, lj) {
		t.Fatalf("distributed and single-node sweeps differ:\n distributed: %s\n      single: %s", dj, lj)
	}
	if v, _ := distributed["completed"].(float64); int(v) != 24 {
		t.Fatalf("completed = %v, want 24", distributed["completed"])
	}
}

// TestClusterSweepSurvivesDeadMember: when a member dies between ring
// convergence and the sweep, its range is re-run locally — the sweep
// still completes with the full, correct answer.
func TestClusterSweepSurvivesDeadMember(t *testing.T) {
	a := startClusterNode(t, Options{})
	b := startClusterNode(t, Options{})
	formCluster(t, a, b)
	b.srv.Close() // dead, but still on a's ring

	resp, err := http.Post("http://"+a.addr+"/v1/sweep", "application/json",
		strings.NewReader(`{"n": 10, "seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var m struct {
		Completed int  `json:"completed"`
		Canceled  bool `json:"canceled"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Completed != 10 || m.Canceled {
		t.Fatalf("completed = %d canceled = %v, want 10 and false", m.Completed, m.Canceled)
	}
	if got := a.svc.clusterSweepFallback.Value(); got != 1 {
		t.Fatalf("sweep_range_fallbacks = %d, want 1", got)
	}
}

// TestClusterSingleMemberServesEverythingAsOwner: a one-node cluster
// degenerates cleanly — every request is owned locally, sweeps run
// undistributed, and /v1/stats grows the cluster block.
func TestClusterSingleMemberServesEverythingAsOwner(t *testing.T) {
	a := startClusterNode(t, Options{})
	resp, body := postAnalyze(t, a.addr, feasibleSpec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cluster"); got != "owner" {
		t.Fatalf("X-Trustd-Cluster = %q, want owner", got)
	}
	sresp, err := http.Post("http://"+a.addr+"/v1/sweep", "application/json",
		strings.NewReader(`{"n": 4, "seed": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if got := sresp.Header.Get("X-Trustd-Cluster"); got != "" {
		t.Fatalf("single-member sweep set X-Trustd-Cluster = %q, want unset", got)
	}

	stats, err := http.Get("http://" + a.addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		Cluster *struct {
			RingMembers  int   `json:"ring_members"`
			AnalyzeOwner int64 `json:"analyze_owner"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if sr.Cluster == nil {
		t.Fatal("/v1/stats has no cluster block in cluster mode")
	}
	if sr.Cluster.RingMembers != 1 || sr.Cluster.AnalyzeOwner != 1 {
		t.Fatalf("cluster stats = %+v, want 1 ring member and 1 owned analyze", sr.Cluster)
	}
}

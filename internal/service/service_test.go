package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/sweep"
)

func mustLoad(t *testing.T, src string) *model.Problem {
	t.Helper()
	p, err := dsl.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The Example 1 brokered resale: feasible, 10 action steps (E1).
const feasibleSpec = `problem example1 {
    consumer c
    broker   b
    producer p
    trusted  t1
    trusted  t2

    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80;  p gives doc "d" }
}
`

// The same compiled problem as feasibleSpec, formatted differently:
// content-addressing must put both in one cache slot.
const feasibleSpecReformatted = `// a comment the compiler never sees
problem example1 {
    consumer c
        broker b
    producer p
    trusted t1
    trusted t2
    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80; p gives doc "d" }
}
`

// The Section 5 poor broker: infeasible (E4).
const infeasibleSpec = `problem poorbroker {
    consumer c
    broker   b
    producer p
    trusted  t1
    trusted  t2

    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80;  p gives doc "d" }

    endowment b $0
}
`

func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if opts.Telemetry == nil {
		opts.Telemetry = &obs.Telemetry{Metrics: reg}
	} else if opts.Telemetry.Metrics != nil {
		reg = opts.Telemetry.Metrics
	}
	svc := New(opts)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, reg
}

func postSpec(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, body
}

func TestAnalyzeFeasibleSpec(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, body := postSpec(t, ts.URL+"/v1/analyze?verify=1&crosscheck=1", feasibleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Cache"); got != "miss" {
		t.Errorf("X-Trustd-Cache = %q, want miss", got)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if !res.Feasible {
		t.Fatalf("example1 must be feasible: %s", body)
	}
	if res.Problem.Principals != 3 || res.Problem.Trusted != 2 || res.Problem.Exchanges != 2 {
		t.Errorf("problem info = %+v", res.Problem)
	}
	if len(res.Steps) == 0 || res.Sequence == "" {
		t.Errorf("feasible result missing steps/sequence: %s", body)
	}
	if res.Verified == nil || !*res.Verified {
		t.Errorf("verify=1 must report verified=true")
	}
	cc := res.CrossCheck
	if cc == nil || !cc.AssetsFeasible || !cc.StrongFeasible || !cc.PetriFound || !cc.Agreement {
		t.Errorf("cross-checks disagree with E1: %+v", cc)
	}
}

func readSpec(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/specs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// Every crosscheck field of an analyze response is sweep.CrossCheck's
// verdict on the same problem under the service's caps, and Agreement
// is SearchSkipped || !feasible || AssetsFeasible — one row per way the
// predicate can come out true.
func TestAnalyzeCrossCheckMatchesSweep(t *testing.T) {
	population, err := dsl.Print(gen.Population(6, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestService(t, Options{})
	opts := Options{}.withDefaults()
	for _, tc := range []struct {
		name                      string
		src                       string
		feasible, skipped, assets bool
	}{
		{"search skipped", population, true, true, false},
		{"graph and assets feasible", readSpec(t, "example1.exch"), true, false, true},
		{"graph impasse, assets feasible", readSpec(t, "example2.exch"), false, false, true},
		{"graph and assets infeasible", readSpec(t, "poorbroker.exch"), false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSpec(t, ts.URL+"/v1/analyze?crosscheck=1", tc.src)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, body %s", resp.StatusCode, body)
			}
			var res Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			p := mustLoad(t, tc.src)
			v, err := sweep.CrossCheck(p, opts.MaxSearchExchanges, opts.PetriBudget, opts.SearchWorkers, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := CrossCheckInfo{
				SearchSkipped:  v.SearchSkipped,
				AssetsFeasible: v.AssetsFeasible,
				StrongFeasible: v.StrongFeasible,
				PetriFound:     v.PetriFound,
				PetriCapped:    v.PetriCapped,
				Agreement:      v.SearchSkipped || !res.Feasible || v.AssetsFeasible,
			}
			if res.CrossCheck == nil || *res.CrossCheck != want {
				t.Errorf("crosscheck = %+v, want %+v", res.CrossCheck, want)
			}
			if res.Feasible != tc.feasible || v.SearchSkipped != tc.skipped || v.AssetsFeasible != tc.assets || !want.Agreement {
				t.Errorf("row (graph %v, skipped %v, assets %v, agreement %v), want (%v, %v, %v, true)",
					res.Feasible, v.SearchSkipped, v.AssetsFeasible, want.Agreement, tc.feasible, tc.skipped, tc.assets)
			}
		})
	}
}

// logSize reads the analysis log's size from /v1/stats.
func logSize(t *testing.T, url string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.VLog.Size
}

// A body over the 1 MiB cap is refused with 413 and never analysed:
// its 1 MiB prefix here is example1 plus an unterminated comment, which
// would parse. A valid spec padded to exactly the cap is still served.
func TestAnalyzeBodyCap(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	example1 := readSpec(t, "example1.exch")
	oversized := example1 + "\n// " + strings.Repeat("x", 1<<20) + "\nthis is not a spec {{{"
	resp, body := postSpec(t, ts.URL+"/v1/analyze?format=text", oversized)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "1 MiB") {
		t.Errorf("413 body does not name the cap: %s", body)
	}
	if n := logSize(t, ts.URL); n != 0 {
		t.Errorf("log size %d after a refused body, want 0", n)
	}

	padded := example1 + "// "
	padded += strings.Repeat("x", 1<<20-len(padded)-1) + "\n"
	if len(padded) != 1<<20 {
		t.Fatalf("padded spec is %d bytes", len(padded))
	}
	if resp, body := postSpec(t, ts.URL+"/v1/analyze?format=text", padded); resp.StatusCode != http.StatusOK {
		t.Fatalf("spec of exactly 1 MiB: status %d, body %s", resp.StatusCode, body)
	}
	if n := logSize(t, ts.URL); n != 1 {
		t.Errorf("log size %d after one analysis, want 1", n)
	}
}

func TestAnalyzeJSONSpecAndSimulation(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	reqBody, _ := json.Marshal(map[string]interface{}{
		"source":   feasibleSpec,
		"simulate": true,
		"seed":     7,
	})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Simulation == nil || !res.Simulation.Completed || res.Simulation.Messages == 0 {
		t.Fatalf("simulation section missing or incomplete: %s", body)
	}
}

func TestAnalyzeMalformedSpec(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	for _, bad := range []string{
		"problem {",
		"not a spec at all",
		`problem p { consumer c
           exchange c with c via t { c gives $1 } }`,
	} {
		resp, body := postSpec(t, ts.URL+"/v1/analyze", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d (want 400), body %s", bad, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("spec %q: error body not structured: %s", bad, body)
		}
	}
}

func TestAnalyzeInfeasibleSpec(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, body := postSpec(t, ts.URL+"/v1/analyze?indemnify=1", infeasibleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infeasibility is a verdict, not an error: status %d, body %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("poorbroker must be infeasible")
	}
	if res.Impasse == "" {
		t.Errorf("infeasible result must carry the impasse diagnosis")
	}
	if res.Indemnity == nil {
		t.Errorf("indemnify=1 must attach the Section 6 proposal")
	}
}

func TestCacheHitIsByteIdenticalAndSkipsEngines(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	url := ts.URL + "/v1/analyze?seq=1&crosscheck=1"
	resp1, body1 := postSpec(t, url, feasibleSpec)
	resp2, body2 := postSpec(t, url, feasibleSpec)
	if resp1.Header.Get("X-Trustd-Cache") != "miss" || resp2.Header.Get("X-Trustd-Cache") != "hit" {
		t.Fatalf("dispositions = %q, %q; want miss, hit",
			resp1.Header.Get("X-Trustd-Cache"), resp2.Header.Get("X-Trustd-Cache"))
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from the original:\n%s\nvs\n%s", body1, body2)
	}
	if n := reg.Counter("core.synthesize.total").Value(); n != 1 {
		t.Errorf("engines ran %d times for two identical requests, want 1", n)
	}
	if h, m := reg.Counter("service.cache.hits").Value(), reg.Counter("service.cache.misses").Value(); h != 1 || m != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", h, m)
	}
	// Text and JSON renderings of the same analysis share one engine
	// run and one cache slot.
	resp3, _ := postSpec(t, url+"&format=text", feasibleSpec)
	if resp3.Header.Get("X-Trustd-Cache") != "hit" {
		t.Errorf("text rendering of a cached analysis should hit, got %q", resp3.Header.Get("X-Trustd-Cache"))
	}
}

func TestCacheIsContentAddressed(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	resp, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpecReformatted)
	if got := resp.Header.Get("X-Trustd-Cache"); got != "hit" {
		t.Errorf("reformatted source must share the cache slot, got %q", got)
	}
	if n := reg.Counter("core.synthesize.total").Value(); n != 1 {
		t.Errorf("engines ran %d times, want 1", n)
	}
}

func TestCacheEviction(t *testing.T) {
	_, ts, reg := newTestService(t, Options{CacheEntries: 1})
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)   // occupies the only slot
	postSpec(t, ts.URL+"/v1/analyze", infeasibleSpec) // evicts it
	resp, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if got := resp.Header.Get("X-Trustd-Cache"); got != "miss" {
		t.Errorf("evicted entry served as %q, want miss", got)
	}
	if n := reg.Counter("service.cache.evictions").Value(); n < 2 {
		t.Errorf("evictions = %d, want ≥ 2", n)
	}
}

func TestConcurrentDuplicatesCollapseToOneRun(t *testing.T) {
	const dups = 8
	reg := obs.NewRegistry()
	svc := New(Options{Telemetry: &obs.Telemetry{Metrics: reg}})
	release := make(chan struct{})
	started := make(chan struct{}, dups)
	svc.testComputeHook = func() {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	bodies := make([][]byte, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "text/plain", strings.NewReader(feasibleSpec))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}(i)
	}
	// One engine run starts; the other 7 requests must park on it, not
	// start their own. Wait until every duplicate is accounted for.
	<-started
	deadline := time.After(5 * time.Second)
	for reg.Counter("service.flight.collapsed").Value()+reg.Counter("service.cache.hits").Value() < dups-1 {
		select {
		case <-deadline:
			t.Fatalf("collapsed+hits = %d after 5s, want %d",
				reg.Counter("service.flight.collapsed").Value()+reg.Counter("service.cache.hits").Value(), dups-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if n := reg.Counter("core.synthesize.total").Value(); n != 1 {
		t.Fatalf("%d duplicate requests ran the engines %d times, want 1", dups, n)
	}
	for i := 1; i < dups; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d got a different body", i)
		}
	}
	select {
	case <-started:
		t.Fatalf("a second engine run started")
	default:
	}
}

func TestTimeoutReturns504AndStillCaches(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(Options{
		RequestTimeout: 50 * time.Millisecond,
		Telemetry:      &obs.Telemetry{Metrics: reg},
	})
	release := make(chan struct{})
	var once sync.Once
	svc.testComputeHook = func() {
		once.Do(func() { <-release }) // only the first run stalls
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, body := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504), body %s", resp.StatusCode, body)
	}
	if n := reg.Counter("service.timeouts").Value(); n != 1 {
		t.Errorf("timeout counter = %d, want 1", n)
	}
	close(release)
	// The abandoned run must finish and publish; the retry is a hit.
	deadline := time.After(5 * time.Second)
	for svc.CacheLen() == 0 {
		select {
		case <-deadline:
			t.Fatal("abandoned run never populated the cache")
		case <-time.After(time.Millisecond):
		}
	}
	resp2, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Trustd-Cache") != "hit" {
		t.Fatalf("retry after timeout: status %d, disposition %q; want 200/hit",
			resp2.StatusCode, resp2.Header.Get("X-Trustd-Cache"))
	}
	if n := reg.Counter("core.synthesize.total").Value(); n != 1 {
		t.Errorf("engines ran %d times, want 1", n)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	reqBody := `{"n": 8, "seed": 3, "family": "chain"}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr sweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Completed != 8 || sr.Canceled || sr.Violations != 0 {
		t.Fatalf("sweep response %+v", sr)
	}

	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(fmt.Sprintf(`{"n": %d}`, maxSweepN+1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-cap sweep: status %d, want 400", resp.StatusCode)
	}
}

func TestOpsEndpoints(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)

	for _, tc := range []struct {
		path string
		want string
	}{
		{"/healthz", `"status":"ok"`},
		{"/v1/stats", `"cache_entries": 1`},
		{"/metrics", `"service.cache.misses": 1`},
		{"/metrics", `"http.analyze.requests": 1`},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body missing %q:\n%s", tc.path, tc.want, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", resp.StatusCode)
	}
}

func TestServeDrainsInFlightRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inHandler := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		io.WriteString(w, "drained ok")
	})

	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, ln, h, 5*time.Second) }()

	type reply struct {
		body   string
		status int
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- reply{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{body: string(body), status: resp.StatusCode}
	}()

	<-inHandler
	cancel() // the SIGTERM path: stop accepting, drain in-flight work

	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned (%v) before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	r := <-got
	if r.err != nil || r.status != http.StatusOK || r.body != "drained ok" {
		t.Fatalf("in-flight request during drain: %+v", r)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRU[*cached](2)
	k := func(i uint64) [2]uint64 { return [2]uint64{i, i ^ 0xff} }
	v1, v2, v3 := &cached{}, &cached{}, &cached{}
	c.put(k(1), v1)
	c.put(k(2), v2)
	if got, ok := c.get(k(1)); !ok || got != v1 {
		t.Fatal("k1 missing")
	}
	if !c.put(k(3), v3) {
		t.Fatal("put k3 into a full cache evicted nothing")
	}
	if _, ok := c.get(k(2)); ok { // k2 was the LRU entry
		t.Fatal("k2 should have been evicted")
	}
	for _, want := range []uint64{1, 3} {
		if _, ok := c.get(k(want)); !ok {
			t.Fatalf("k%d should survive", want)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestRequestKeyDiscriminatesOptions(t *testing.T) {
	p1 := mustLoad(t, feasibleSpec)
	p2 := mustLoad(t, feasibleSpecReformatted)
	p3 := mustLoad(t, infeasibleSpec)
	base := requestKey(p1, AnalyzeOptions{})
	if got := requestKey(p2, AnalyzeOptions{}); got != base {
		t.Errorf("reformatted source changed the key")
	}
	if got := requestKey(p3, AnalyzeOptions{}); got == base {
		t.Errorf("different problem, same key")
	}
	seen := map[[2]uint64]string{{}: "zero"}
	seen[base] = "base"
	for name, opts := range map[string]AnalyzeOptions{
		"trace":      {Trace: true},
		"verify":     {Verify: true},
		"crosscheck": {CrossCheck: true},
		"simulate":   {Simulate: true},
		"seed":       {Simulate: true, SimSeed: 1},
		"deadline":   {Simulate: true, SimDeadline: 99},
	} {
		key := requestKey(p1, opts)
		if prev, dup := seen[key]; dup {
			t.Errorf("options %s collide with %s", name, prev)
		}
		seen[key] = name
	}
}

// --- Incremental analysis over HTTP (the If-Match-style base digest) ----

// feasibleSpecRetuned is feasibleSpec with the retail price retuned: the
// sequencing graph is bit-identical, so analysis against the base digest
// is served by diff-and-patch.
const feasibleSpecRetuned = `problem example1 {
    consumer c
    broker   b
    producer p
    trusted  t1
    trusted  t2

    exchange c with b via t1 { c gives $101; b gives doc "d" }
    exchange b with p via t2 { b gives $80;  p gives doc "d" }
}
`

// feasibleSpecGrown adds a second resale chain: a structural edit the
// incremental path must refuse, falling back to the full pipeline.
const feasibleSpecGrown = `problem example1 {
    consumer c
    broker   b
    producer p
    producer p2
    trusted  t1
    trusted  t2
    trusted  t3

    exchange c with b via t1 { c gives $100; b gives doc "d" }
    exchange b with p via t2 { b gives $80;  p gives doc "d" }
    exchange b with p2 via t3 { b gives $10; p2 gives doc "e" }
}
`

func postSpecWithBase(t *testing.T, url, spec, base string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set("X-Trustd-Base", base)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, body
}

func TestAnalyzeIncrementalHTTP(t *testing.T) {
	_, ts, reg := newTestService(t, Options{})
	const q = "/v1/analyze?seq=1&verify=1&format=text"

	resp, _ := postSpec(t, ts.URL+q, feasibleSpec)
	digest := resp.Header.Get("X-Trustd-Digest")
	if len(digest) != 32 {
		t.Fatalf("X-Trustd-Digest = %q, want 32 hex chars", digest)
	}
	if got := resp.Header.Get("X-Trustd-Incremental"); got != "" {
		t.Fatalf("first analysis has no base but X-Trustd-Incremental = %q", got)
	}

	// The edited spec against the resident base: served by patch, and the
	// body must be byte-identical to a cold service's full analysis.
	resp, body := postSpecWithBase(t, ts.URL+q, feasibleSpecRetuned, digest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Incremental"); got != string(IncrementalPatched) {
		t.Fatalf("X-Trustd-Incremental = %q, want patched", got)
	}
	_, ts2, _ := newTestService(t, Options{})
	_, wantBody := postSpec(t, ts2.URL+q, feasibleSpecRetuned)
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("patched body differs from cold full analysis:\npatched:\n%s\nfull:\n%s", body, wantBody)
	}
	if n := reg.Counter("service.incremental.patched").Value(); n != 1 {
		t.Errorf("service.incremental.patched = %d, want 1", n)
	}

	// A structural edit against the same base runs the full pipeline.
	resp, body = postSpecWithBase(t, ts.URL+q, feasibleSpecGrown, digest)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Incremental"); got != string(IncrementalFullRun) {
		t.Fatalf("structural edit: X-Trustd-Incremental = %q, want full", got)
	}
	if n := reg.Counter("service.incremental.full").Value(); n != 1 {
		t.Errorf("service.incremental.full = %d, want 1", n)
	}

	// A digest that is not resident degrades to a normal full analysis.
	resp, body = postSpecWithBase(t, ts.URL+q, infeasibleSpec, strings.Repeat("0", 32))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trustd-Incremental"); got != string(IncrementalBaseMiss) {
		t.Fatalf("unknown base: X-Trustd-Incremental = %q, want base-miss", got)
	}
	if n := reg.Counter("service.incremental.base_miss").Value(); n != 1 {
		t.Errorf("service.incremental.base_miss = %d, want 1", n)
	}

	// Replaying a request that is already cached answers from the cache;
	// the incremental header does not apply.
	resp, _ = postSpecWithBase(t, ts.URL+q, feasibleSpecRetuned, digest)
	if got := resp.Header.Get("X-Trustd-Cache"); got != "hit" {
		t.Errorf("X-Trustd-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Trustd-Incremental"); got != "" {
		t.Errorf("cache hit reported X-Trustd-Incremental = %q", got)
	}

	// Malformed digests are a client error.
	resp, _ = postSpecWithBase(t, ts.URL+q, feasibleSpec, "not-a-digest")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed digest: status %d, want 400", resp.StatusCode)
	}

	// The base cache is populated and reported by /v1/stats.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var stats statsResponse
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatalf("stats: %v\n%s", err, sbody)
	}
	if stats.BaseEntries < 2 || stats.BaseCapacity != (Options{}).withDefaults().BaseEntries {
		t.Errorf("stats base fields = %+v", stats)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	p := mustLoad(t, feasibleSpec)
	d := ProblemDigest(p)
	s := FormatDigest(d)
	got, err := ParseDigest(s)
	if err != nil {
		t.Fatalf("ParseDigest(%q) = %v", s, err)
	}
	if got != d {
		t.Fatalf("round trip: %v != %v", got, d)
	}
	if d2 := ProblemDigest(mustLoad(t, feasibleSpecReformatted)); d2 != d {
		t.Errorf("reformatted source changed the problem digest")
	}
	if d3 := ProblemDigest(mustLoad(t, infeasibleSpec)); d3 == d {
		t.Errorf("different problem, same digest")
	}
	for _, bad := range []string{"", "zz", strings.Repeat("g", 32), strings.Repeat("0", 31)} {
		if _, err := ParseDigest(bad); err == nil {
			t.Errorf("ParseDigest(%q) accepted a malformed digest", bad)
		}
	}
}

// overflowSpec pays $2^30 to each of two producers, so the consumer
// holds 2^31 money tokens: one more than the Petri encoding's int32
// counts can carry.
const overflowSpec = `problem overflow {
    consumer c
    producer p1
    producer p2
    trusted  t1
    trusted  t2

    exchange c with p1 via t1 { c gives $1073741824; p1 gives doc "d1" }
    exchange c with p2 via t2 { c gives $1073741824; p2 gives doc "d2" }
}
`

// A cross-check whose Petri encoding would overflow fails closed with
// 422, not a silent petri_found=false; without crosscheck the spec is
// analysed normally.
func TestAnalyzeCrossCheckTokenOverflow(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	resp, body := postSpec(t, ts.URL+"/v1/analyze?crosscheck=1", overflowSpec)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "exceeds the encoding's limit") {
		t.Errorf("422 body does not name the overflow: %s", body)
	}
	if resp, body := postSpec(t, ts.URL+"/v1/analyze", overflowSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain analyze: status %d, body %s", resp.StatusCode, body)
	}
}

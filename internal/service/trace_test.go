package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/model"
)

// postWithID posts a spec with an explicit X-Trustd-Request-Id.
func postWithID(t *testing.T, url, spec, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})

	// A well-formed client ID is echoed verbatim.
	resp, _ := postWithID(t, ts.URL+"/v1/analyze", feasibleSpec, "client-id-1:abc.DEF_2")
	if got := resp.Header.Get(requestIDHeader); got != "client-id-1:abc.DEF_2" {
		t.Fatalf("client ID not echoed: got %q", got)
	}

	// No client ID: a 16-hex-character ID is generated.
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	resp, _ = postWithID(t, ts.URL+"/v1/analyze", feasibleSpec, "")
	if got := resp.Header.Get(requestIDHeader); !hexID.MatchString(got) {
		t.Fatalf("generated ID %q is not 16 hex chars", got)
	}

	// A malformed client ID (bad charset) is replaced, not echoed.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(feasibleSpec))
	req.Header.Set(requestIDHeader, "has spaces and/slashes")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(requestIDHeader); !hexID.MatchString(got) {
		t.Fatalf("malformed ID should be replaced with a generated one, got %q", got)
	}

	// Every endpoint carries identity, including scrapes and probes.
	for _, path := range []string{"/metrics", "/healthz", "/v1/stats", "/v1/requests"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.Header.Get(requestIDHeader) == "" {
			t.Errorf("GET %s: no %s header", path, requestIDHeader)
		}
	}
}

func TestServerTimingStages(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})

	parseTiming := func(resp *http.Response) map[string]bool {
		stages := map[string]bool{}
		for _, part := range strings.Split(resp.Header.Get("Server-Timing"), ",") {
			name, _, ok := strings.Cut(strings.TrimSpace(part), ";")
			if ok {
				stages[name] = true
			}
		}
		return stages
	}

	// Miss: the leader records the full pipeline.
	resp, _ := postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	miss := parseTiming(resp)
	for _, want := range []string{"parse", "compile", "cache", "engine", "render", "total"} {
		if !miss[want] {
			t.Errorf("miss Server-Timing lacks stage %q (header %q)", want, resp.Header.Get("Server-Timing"))
		}
	}
	if len(miss) < 4 {
		t.Fatalf("miss Server-Timing has %d stages, want >= 4", len(miss))
	}

	// Hit: still >= 4 stages, and the cache stage carries the disposition.
	resp, _ = postSpec(t, ts.URL+"/v1/analyze", feasibleSpec)
	if resp.Header.Get("X-Trustd-Cache") != "hit" {
		t.Fatalf("second request not a hit: %q", resp.Header.Get("X-Trustd-Cache"))
	}
	hit := parseTiming(resp)
	if len(hit) < 4 {
		t.Fatalf("hit Server-Timing has %d stages, want >= 4: %q", len(hit), resp.Header.Get("Server-Timing"))
	}
	if !strings.Contains(resp.Header.Get("Server-Timing"), "cache;dur=") ||
		!strings.Contains(resp.Header.Get("Server-Timing"), ";desc=hit") {
		t.Errorf("hit Server-Timing lacks cache disposition: %q", resp.Header.Get("Server-Timing"))
	}
}

func TestTraceEndpointRoundTrip(t *testing.T) {
	// Retain-all mode: every request keeps its span tree.
	_, ts, _ := newTestService(t, Options{SlowLogMillis: -1})

	resp, _ := postWithID(t, ts.URL+"/v1/analyze?crosscheck=1", feasibleSpec, "trace-me-1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/trace/trace-me-1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d: %s", r.StatusCode, body)
	}
	var tr RequestTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if tr.ID != "trace-me-1" || tr.Endpoint != "analyze" || !tr.Slow {
		t.Fatalf("trace metadata wrong: %+v", tr)
	}
	if len(tr.Stages) < 4 {
		t.Fatalf("trace has %d stages, want >= 4", len(tr.Stages))
	}
	if tr.Spans == nil || tr.Spans.Name != "analyze" {
		t.Fatalf("trace span tree missing or misrooted: %+v", tr.Spans)
	}
	names := map[string]bool{}
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Spans)
	for _, want := range []string{"stage:parse", "stage:compile", "stage:cache", "stage:engine", "stage:crosscheck", "stage:render"} {
		if !names[want] {
			t.Errorf("span tree lacks %q (have %v)", want, names)
		}
	}
	// The fan-out tracer must have landed engine-internal spans too.
	engineSpans := 0
	for n := range names {
		if !strings.HasPrefix(n, "stage:") && n != "analyze" {
			engineSpans++
		}
	}
	if engineSpans == 0 {
		t.Error("span tree holds no engine-internal spans; the fan-out tracer is not wired")
	}

	// Unknown ID: 404 with a hint.
	r, err = http.Get(ts.URL + "/v1/trace/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "no retained trace") {
		t.Fatalf("unknown trace: status %d body %s", r.StatusCode, body)
	}
}

func TestSlowlogThresholdFilters(t *testing.T) {
	// A generous threshold: the request lands in the recent table but
	// keeps no span tree.
	svc, ts, _ := newTestService(t, Options{SlowLogMillis: 60_000})

	resp, _ := postWithID(t, ts.URL+"/v1/analyze", feasibleSpec, "fast-req")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	r, err := http.Get(ts.URL + "/v1/trace/fast-req")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("fast request should keep no trace, got status %d", r.StatusCode)
	}

	var row *RequestTrace
	for _, r := range svc.reqlog.recentList() {
		if r.ID == "fast-req" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("recent table should still hold the fast request")
	}
	if row.Slow || row.Spans != nil {
		t.Fatalf("fast request marked slow or carries spans: %+v", row)
	}
	if n := svc.slowRequests.Value(); n != 0 {
		t.Fatalf("slow-request counter = %d, want 0", n)
	}
}

func TestRequestsTable(t *testing.T) {
	_, ts, _ := newTestService(t, Options{SlowLogMillis: -1})

	postWithID(t, ts.URL+"/v1/analyze", feasibleSpec, "req-a")
	postWithID(t, ts.URL+"/v1/analyze", infeasibleSpec, "req-b")

	r, err := http.Get(ts.URL + "/v1/requests")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var resp requestsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding table: %v", err)
	}
	if resp.Total != 2 || len(resp.Requests) != 2 {
		t.Fatalf("table: total=%d len=%d, want 2/2", resp.Total, len(resp.Requests))
	}
	// Newest first.
	if resp.Requests[0].ID != "req-b" || resp.Requests[1].ID != "req-a" {
		t.Fatalf("table not newest-first: %s, %s", resp.Requests[0].ID, resp.Requests[1].ID)
	}
	if !resp.RetainAll {
		t.Error("retain_all should report true under SlowLogMillis<0")
	}
	for _, row := range resp.Requests {
		if len(row.Stages) == 0 {
			t.Errorf("row %s has no stage breakdown", row.ID)
		}
		if row.Spans != nil {
			t.Errorf("row %s carries a span tree; the table must stay metadata-only", row.ID)
		}
	}

	// The text rendering is a plain table.
	r, err = http.Get(ts.URL + "/v1/requests?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(text), "ENDPOINT") || !strings.Contains(string(text), "req-a") {
		t.Fatalf("text table missing content:\n%s", text)
	}
}

func TestStatsDetail(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})

	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec) // miss
	postSpec(t, ts.URL+"/v1/analyze", feasibleSpec) // hit

	r, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache traffic: hits=%d misses=%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
	if st.Cache.OldestAgeSeconds < 0 || st.Cache.OldestAgeSeconds > 60 {
		t.Errorf("implausible cache age: %v", st.Cache.OldestAgeSeconds)
	}
	ep, ok := st.Endpoints["analyze"]
	if !ok {
		t.Fatalf("stats lack the analyze endpoint rolling window: %s", body)
	}
	if ep.Count < 2 || ep.P50MS < 0 || ep.P99MS < ep.P50MS {
		t.Errorf("implausible rolling stats: %+v", ep)
	}
	if st.SlowLog.ThresholdMS != 250 || st.SlowLog.Requests < 2 {
		t.Errorf("slowlog stats: %+v", st.SlowLog)
	}
	// The flat legacy fields stay populated.
	if st.CacheCapacity != 512 || st.CacheEntries != 1 {
		t.Errorf("legacy fields: entries=%d capacity=%d", st.CacheEntries, st.CacheCapacity)
	}
}

// TestTracingIsAdditive is the additivity property: for a spread of
// specs and option sets, the response body served by a fully traced
// service (retain-all slowlog, span rings, fan-out tracer) is
// byte-identical to one served with telemetry disabled.
func TestTracingIsAdditive(t *testing.T) {
	_, traced, _ := newTestService(t, Options{SlowLogMillis: -1})
	// The plain service runs with telemetry fully disabled (nil bundle).
	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()

	cases := []struct{ path, spec string }{
		{"/v1/analyze", feasibleSpec},
		{"/v1/analyze?seq=1&verify=1", feasibleSpec},
		{"/v1/analyze?crosscheck=1&simulate=1&seed=7", feasibleSpec},
		{"/v1/analyze?indemnify=1", infeasibleSpec},
		{"/v1/analyze?format=text&seq=1", feasibleSpec},
		{"/v1/analyze", feasibleSpecReformatted},
	}
	for _, tc := range cases {
		r1, b1 := postSpec(t, traced.URL+tc.path, tc.spec)
		r2, b2 := postSpec(t, plain.URL+tc.path, tc.spec)
		if r1.StatusCode != r2.StatusCode {
			t.Errorf("%s: status %d vs %d", tc.path, r1.StatusCode, r2.StatusCode)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s: traced body differs from plain body\ntraced: %s\nplain:  %s", tc.path, b1, b2)
		}
	}
}

// TestTraceRingEviction exercises the FIFO ring directly: pushes past
// capacity evict oldest-first and list() returns newest-first.
func TestTraceRingEviction(t *testing.T) {
	ring := newTraceRing(3)
	mk := func(id string) *RequestTrace { return &RequestTrace{ID: id, Start: time.Now()} }
	if old := ring.push(mk("a")); old != nil {
		t.Fatalf("push into empty ring evicted %v", old)
	}
	ring.push(mk("b"))
	ring.push(mk("c"))
	if old := ring.push(mk("d")); old == nil || old.ID != "a" {
		t.Fatalf("overflow should evict oldest (a), got %+v", old)
	}
	got := []string{}
	for _, r := range ring.list() {
		got = append(got, r.ID)
	}
	if strings.Join(got, ",") != "d,c,b" {
		t.Fatalf("list order = %v, want d,c,b", got)
	}
}

// TestSlowlogIndexEviction: when a slow trace is evicted from the ring,
// its ID leaves the index too — but an ID reused by a newer request
// must not be deleted when the older record under the same ID falls out.
func TestSlowlogIndexEviction(t *testing.T) {
	l := newRequestLog(-1, 2)
	push := func(id string) {
		rt := newReqTrace(id, "analyze", "POST")
		rt.finish(200)
		l.record(rt)
	}
	push("one")
	push("two")
	push("three") // evicts "one"
	if _, ok := l.get("one"); ok {
		t.Fatal("evicted trace still resolvable")
	}
	if _, ok := l.get("three"); !ok {
		t.Fatal("latest trace not resolvable")
	}
	// Reuse an ID: the newer record owns the index slot even after the
	// older same-ID record is evicted.
	push("three") // ring now [three#1, three#2]; evicts "two"
	push("four")  // evicts three#1 — must NOT delete the index entry for three#2
	if tr, ok := l.get("three"); !ok || tr == nil {
		t.Fatal("reused ID lost its index entry when the older record was evicted")
	}
}

// TestServerTimingCoversReport checks that the report a miss derives is
// timed inside a stage. Plan.Verify replays every step of a population's
// plan, so under verify=1 it outweighs the engine; the stages must still
// add up to nearly the request's total. A scheduling pause on a loaded
// host can open an unattributed gap in any one request, so the test
// takes the best of a few misses (each price is a distinct problem).
func TestServerTimingCoversReport(t *testing.T) {
	_, ts, _ := newTestService(t, Options{})
	var headers []string
	for price := model.Money(10); price < 15; price++ {
		spec, err := dsl.Print(gen.Population(24, 0, price))
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postSpec(t, ts.URL+"/v1/analyze?verify=1&seq=1", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
		}
		if c := resp.Header.Get("X-Trustd-Cache"); c != "miss" {
			t.Fatalf("price %d: X-Trustd-Cache = %q, want miss", price, c)
		}
		header := resp.Header.Get("Server-Timing")
		var stages, total float64
		for _, part := range strings.Split(header, ",") {
			name, rest, _ := strings.Cut(strings.TrimSpace(part), ";dur=")
			dur, _, _ := strings.Cut(rest, ";")
			ms, err := strconv.ParseFloat(dur, 64)
			if err != nil {
				t.Fatalf("Server-Timing %q: %v", header, err)
			}
			if name == "total" {
				total = ms
			} else {
				stages += ms
			}
		}
		if stages >= 0.9*total {
			return
		}
		headers = append(headers, header)
	}
	t.Errorf("in no miss did the stages sum to 90%% of total:\n%s", strings.Join(headers, "\n"))
}

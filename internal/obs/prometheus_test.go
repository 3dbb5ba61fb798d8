package obs

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expositionLine matches one Prometheus 0.0.4 sample line: a metric
// identifier, an optional label set, and a float value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

func populated() *Registry {
	reg := NewRegistry()
	reg.Counter("service.cache.hits").Add(42)
	reg.Gauge("http.inflight").Set(3)
	h := reg.Histogram("http.analyze.seconds", DurationBuckets())
	for _, v := range []float64{1e-5, 1e-3, 0.2, 50} { // 50 overflows
		h.Observe(v)
	}
	r := reg.Rolling("http.analyze.rolling_seconds", DurationBuckets())
	for _, v := range []float64{0.01, 0.02, 0.04} {
		r.Observe(v)
	}
	return reg
}

func TestWritePrometheusIsWellFormed(t *testing.T) {
	var b strings.Builder
	s := populated().Snapshot()
	rt := NewRuntime().Sample()
	s.Runtime = &rt
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	types := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE comment %q", i, line)
			}
			types[f[2]] = f[3]
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d is not valid exposition: %q", i, line)
		}
	}
	for name, typ := range map[string]string{
		"service_cache_hits_total":     "counter",
		"http_inflight":                "gauge",
		"http_analyze_seconds":         "histogram",
		"http_analyze_rolling_seconds": "summary",
		"go_goroutines":                "gauge",
		"go_gc_cycles_total":           "counter",
		"process_uptime_seconds":       "gauge",
	} {
		if types[name] != typ {
			t.Errorf("metric %s: TYPE %q, want %q", name, types[name], typ)
		}
	}
}

func TestWritePrometheusHistogramIsCumulative(t *testing.T) {
	var b strings.Builder
	if err := populated().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	bucketRe := regexp.MustCompile(`^http_analyze_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	last, buckets := int64(-1), 0
	var infCount, count int64 = -1, -1
	for _, line := range strings.Split(b.String(), "\n") {
		if m := bucketRe.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseInt(m[2], 10, 64)
			if n < last {
				t.Fatalf("bucket counts not cumulative at %q (prev %d)", line, last)
			}
			last = n
			buckets++
			if m[1] == "+Inf" {
				infCount = n
			}
		}
		if f, ok := strings.CutPrefix(line, "http_analyze_seconds_count "); ok {
			count, _ = strconv.ParseInt(f, 10, 64)
		}
	}
	if buckets == 0 {
		t.Fatal("no bucket lines rendered")
	}
	if infCount != 4 || count != 4 {
		t.Fatalf("le=\"+Inf\" bucket %d and _count %d must both equal 4 observations", infCount, count)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"service.cache.hits": "service_cache_hits",
		"http.analyze-v1":    "http_analyze_v1",
		"9lives":             "_9lives",
		"already_fine:x":     "already_fine:x",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMetricsHandlerContentNegotiation(t *testing.T) {
	reg := populated()
	h := MetricsHandler(reg, NewRuntime())

	// Default: the JSON snapshot, runtime attached.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default Content-Type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("default body is not JSON: %v", err)
	}
	if snap.Runtime == nil || snap.Runtime.Goroutines < 1 {
		t.Fatalf("runtime sample missing from JSON snapshot: %+v", snap.Runtime)
	}
	if snap.Counters["service.cache.hits"] != 42 {
		t.Fatalf("counters missing: %v", snap.Counters)
	}

	// The Prometheus scraper's Accept header selects the exposition.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("prometheus Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE service_cache_hits_total counter",
		"service_cache_hits_total 42",
		`http_analyze_seconds_bucket{le="+Inf"} 4`,
		"go_goroutines ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus body missing %q:\n%s", want, body)
		}
	}

	// ?format=prometheus works without an Accept header.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if !strings.Contains(rec.Body.String(), "service_cache_hits_total 42") {
		t.Fatal("?format=prometheus did not render exposition")
	}
}

func TestMetricsHandlerNilRegistry(t *testing.T) {
	var reg *Registry
	h := MetricsHandler(reg, nil)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("nil registry scrape: status %d", rec.Code)
	}
}

package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHTTPMetricsStatusClassBucketing(t *testing.T) {
	reg := NewRegistry()
	h := HTTPMetrics(reg, "probe", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/implicit200":
			fmt.Fprint(w, "ok") // no WriteHeader: Write implies 200
		case "/headeronly":
			// neither WriteHeader nor Write: net/http sends 200
		default:
			code := 0
			fmt.Sscanf(r.URL.Path, "/%d", &code)
			w.WriteHeader(code)
		}
	}))
	paths := []string{
		"/103", "/200", "/204", "/301", "/404", "/422", "/500", "/504",
		"/implicit200", "/headeronly",
	}
	for _, p := range paths {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}
	want := map[string]int64{
		"http.probe.requests":   10,
		"http.probe.status.1xx": 1,
		"http.probe.status.2xx": 4, // explicit 200, 204, implicit 200, header-less
		"http.probe.status.3xx": 1,
		"http.probe.status.4xx": 2,
		"http.probe.status.5xx": 2,
	}
	snap := reg.Snapshot()
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if g := snap.Gauges["http.inflight"]; g != 0 {
		t.Errorf("http.inflight = %d after all requests returned, want 0", g)
	}
	if c := snap.Histograms["http.probe.seconds"].Count; c != 10 {
		t.Errorf("latency histogram count = %d, want 10", c)
	}
	if c := snap.Rollings["http.probe.rolling_seconds"].Count; c != 10 {
		t.Errorf("rolling histogram count = %d, want 10", c)
	}
}

func TestHTTPMetricsNilRegistryReturnsHandlerUnchanged(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := HTTPMetrics(nil, "x", h); fmt.Sprintf("%p", got) != fmt.Sprintf("%p", h) {
		t.Fatal("nil registry must return the handler unchanged")
	}
}

// flushRecorder observes whether Flush reached the underlying writer.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushed int
}

func (f *flushRecorder) Flush() { f.flushed++ }

// TestStatusWriterForwardsFlusher is the regression test for the
// middleware swallowing http.Flusher: a streaming handler wrapped in
// HTTPMetrics must still be able to flush through to the client.
func TestStatusWriterForwardsFlusher(t *testing.T) {
	reg := NewRegistry()
	h := HTTPMetrics(reg, "stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("wrapped writer lost http.Flusher")
			return
		}
		fmt.Fprint(w, "chunk1")
		f.Flush()
		fmt.Fprint(w, "chunk2")
		f.Flush()
	}))
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.flushed != 2 {
		t.Fatalf("underlying writer saw %d flushes, want 2", rec.flushed)
	}
	if rec.Body.String() != "chunk1chunk2" {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if got := reg.Snapshot().Counters["http.stream.status.2xx"]; got != 1 {
		t.Fatalf("status bucketing broke under streaming: 2xx = %d", got)
	}
}

// TestStatusWriterFlushOnNonFlusher pins the degenerate path: flushing
// over a writer that cannot flush is a no-op, not a panic.
func TestStatusWriterFlushOnNonFlusher(t *testing.T) {
	w := &StatusWriter{ResponseWriter: nonFlusher{}}
	w.Flush() // must not panic
}

type nonFlusher struct{ http.ResponseWriter }

package obs

import (
	"net/http"
	"time"
)

// StatusWriter records the status code a handler sent so a middleware
// can act on it after the fact, and forwards http.Flusher. HTTPMetrics
// and trustd's request-identity middleware both wrap handlers in it.
type StatusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first status code and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write forwards the body; a handler that writes without calling
// WriteHeader has sent 200.
func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards http.Flusher so wrapping a streaming handler does not
// silently disable its flushes (a no-op when the underlying writer
// cannot flush, matching http.ResponseController semantics).
func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status reports the status code the handler sent: 200 when it wrote
// nothing at all.
func (w *StatusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// HTTPMetrics wraps h with per-endpoint request accounting: a
// `http.<name>.requests` counter, a `http.<name>.seconds` latency
// histogram (DurationBuckets layout), a `http.<name>.rolling_seconds`
// sliding-window histogram feeding the p50/p99 figures in /v1/stats,
// per-status-class counters (`http.<name>.status.2xx` …) and an
// `http.inflight` gauge shared by every wrapped endpoint. A nil
// registry returns h unchanged, so the disabled path costs nothing —
// the same additivity contract as the rest of the telemetry layer.
func HTTPMetrics(reg *Registry, name string, h http.Handler) http.Handler {
	if reg == nil {
		return h
	}
	requests := reg.Counter("http." + name + ".requests")
	seconds := reg.Histogram("http."+name+".seconds", DurationBuckets())
	rolling := reg.Rolling("http."+name+".rolling_seconds", DurationBuckets())
	inflight := reg.Gauge("http.inflight")
	classes := [5]*Counter{
		reg.Counter("http." + name + ".status.1xx"),
		reg.Counter("http." + name + ".status.2xx"),
		reg.Counter("http." + name + ".status.3xx"),
		reg.Counter("http." + name + ".status.4xx"),
		reg.Counter("http." + name + ".status.5xx"),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		requests.Inc()
		inflight.Add(1)
		start := time.Now()
		sw := &StatusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, req)
		elapsed := time.Since(start).Seconds()
		seconds.Observe(elapsed)
		rolling.Observe(elapsed)
		inflight.Add(-1)
		if cls := sw.Status()/100 - 1; cls >= 0 && cls < len(classes) {
			classes[cls].Inc()
		}
	})
}

package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of the registry.
// The JSON snapshot stays the canonical grep-stable form; this renderer
// exists so a stock Prometheus (or anything speaking its scrape format)
// can point at /metrics unmodified. Mapping: counters gain the
// conventional `_total` suffix, fixed-bucket histograms render as
// cumulative `_bucket{le="…"}` series plus `_sum`/`_count`, and rolling
// histograms render as summaries with precomputed quantile labels —
// the window is baked in process-side, which is exactly what a sliding
// estimate is for.

// promName maps a dotted registry name to the Prometheus identifier
// charset [a-zA-Z0-9_:], replacing every other rune with '_' and
// prefixing '_' when the name would start with a digit.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// promFloat renders a float the way Prometheus parses it.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format, metrics sorted by name within each kind so output is diffable
// across scrapes.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		n := promName(name)
		if !strings.HasSuffix(n, "_total") {
			n += "_total"
		}
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, promFloat(bound), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
	}
	rnames := make([]string, 0, len(s.Rollings))
	for name := range s.Rollings {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	for _, name := range rnames {
		r := s.Rollings[name]
		n := promName(name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", n, promFloat(r.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %s\n", n, promFloat(r.P90))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", n, promFloat(r.P99))
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(r.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, r.Count)
	}
	if s.Runtime != nil {
		s.Runtime.writePrometheus(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePrometheus renders the runtime sample under the conventional
// go_* / process_* names a Prometheus Go dashboard expects.
func (rs *RuntimeStats) writePrometheus(b *strings.Builder) {
	gauge := func(name string, v string) {
		fmt.Fprintf(b, "# TYPE %s gauge\n%s %s\n", name, name, v)
	}
	gauge("go_goroutines", strconv.Itoa(rs.Goroutines))
	gauge("go_memstats_heap_alloc_bytes", strconv.FormatUint(rs.HeapAllocBytes, 10))
	gauge("go_memstats_heap_sys_bytes", strconv.FormatUint(rs.HeapSysBytes, 10))
	gauge("go_memstats_heap_objects", strconv.FormatUint(rs.HeapObjects, 10))
	gauge("go_gc_last_pause_seconds", promFloat(rs.GCLastPauseSeconds))
	gauge("process_uptime_seconds", promFloat(rs.UptimeSeconds))
	fmt.Fprintf(b, "# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", rs.GCCycles)
	fmt.Fprintf(b, "# TYPE go_gc_pause_seconds_total counter\ngo_gc_pause_seconds_total %s\n",
		promFloat(rs.GCPauseTotalSeconds))
}

// PrometheusContentType is the Content-Type of the 0.0.4 text format.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus is the content negotiation on /metrics: an explicit
// ?format=prometheus, or an Accept header asking for text/plain (the
// Prometheus scraper sends `text/plain; version=0.0.4`) or OpenMetrics.
func wantsPrometheus(req *http.Request) bool {
	if req.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// MetricsHandler serves the registry snapshot with content negotiation:
// JSON by default, Prometheus text exposition when the request asks for
// it (see wantsPrometheus). When rt is non-nil its sample is folded into every
// response — the "sampled on scrape" contract. Safe on a nil registry
// and a nil runtime.
func MetricsHandler(r *Registry, rt *Runtime) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Snapshot()
		if rt != nil {
			sample := rt.Sample()
			s.Runtime = &sample
		}
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", PrometheusContentType)
			s.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.WriteJSON(w)
	})
}

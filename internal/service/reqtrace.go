package service

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustseq/internal/obs"
)

// Request-scoped tracing: every HTTP request gets an identity and a
// per-stage trace. The service records its own pipeline stages (parse →
// digest → load → compile → cache → engine → render) directly, and
// hands the engine run a telemetry bundle whose tracer fans out into a
// request-local ring sink, so core/sequencing/search/petri spans land
// in the same record without touching any process-wide sink. The
// stages surface in a Server-Timing response header on every answer;
// the full span tree is retained by the slow-request log (slowlog.go)
// and served back at /v1/trace/{id}. In cluster mode a proxied request
// carries its ID to the ring owner, so both nodes record it under one
// identity.

// requestIDHeader is the request-identity header: accepted from the
// client when well-formed, generated otherwise, always echoed back.
const requestIDHeader = "X-Trustd-Request-Id"

// reqIDFallback seeds generated IDs if crypto/rand is unavailable.
var reqIDFallback atomic.Uint64

// newRequestID returns a fresh 16-hex-character request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], reqIDFallback.Add(1)^uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// clientRequestID accepts the caller's X-Trustd-Request-Id when it is
// 1–128 characters from a conservative charset (letters, digits,
// ".",  "_", "-", ":"), so IDs can cross log pipelines and URL paths
// unescaped; anything else is replaced with a generated ID.
func clientRequestID(r *http.Request) string {
	v := r.Header.Get(requestIDHeader)
	if v == "" || len(v) > 128 {
		return newRequestID()
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		ok := c == '.' || c == '_' || c == '-' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if !ok {
			return newRequestID()
		}
	}
	return v
}

// stageRec is one in-progress service stage.
type stageRec struct {
	name  string
	start time.Time
	dur   time.Duration
	done  bool
}

// reqTrace accumulates one request's observability record. All methods
// are safe on a nil receiver and cost nothing there — the request path
// of the plain Analyze API (CLI parity tests, benchmarks) passes nil —
// and a mutex serializes the handler goroutine against a leader
// compute goroutine that may still be recording stages after the
// request itself timed out.
type reqTrace struct {
	mu       sync.Mutex
	id       string
	endpoint string
	method   string
	start    time.Time
	stages   []stageRec
	ring     *obs.RingSink
	status   int
	dur      time.Duration
	finished bool
	cache    string
	inc      string
}

// traceEvents bounds the per-request span ring: engine records past the
// bound evict the oldest and the trace reports how many were dropped.
const traceEvents = 256

// newReqTrace opens a record.
func newReqTrace(id, endpoint, method string) *reqTrace {
	return &reqTrace{
		id:       id,
		endpoint: endpoint,
		method:   method,
		start:    time.Now(),
		ring:     obs.NewRingSink(traceEvents),
	}
}

// beginStage opens a named stage and returns its index (-1 on nil).
func (rt *reqTrace) beginStage(name string) int {
	if rt == nil {
		return -1
	}
	rt.mu.Lock()
	rt.stages = append(rt.stages, stageRec{name: name, start: time.Now()})
	i := len(rt.stages) - 1
	rt.mu.Unlock()
	return i
}

// endStage closes the stage opened at index i.
func (rt *reqTrace) endStage(i int) {
	if rt == nil || i < 0 {
		return
	}
	rt.mu.Lock()
	if i < len(rt.stages) && !rt.stages[i].done {
		rt.stages[i].dur = time.Since(rt.stages[i].start)
		rt.stages[i].done = true
	}
	rt.mu.Unlock()
}

// setDisposition records the cache and incremental outcomes.
func (rt *reqTrace) setDisposition(cache, inc string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.cache, rt.inc = cache, inc
	rt.mu.Unlock()
}

// engineTelemetry derives the bundle an engine run should receive: the
// service's metrics registry unchanged, and a tracer fanning out to
// both the service-wide sink (when one exists) and this request's ring.
func (rt *reqTrace) engineTelemetry(base *obs.Telemetry) *obs.Telemetry {
	if rt == nil || rt.ring == nil {
		return base
	}
	return &obs.Telemetry{
		Tracer:  base.Trace().Fanout(rt.ring),
		Metrics: base.Reg(),
	}
}

// finish stamps the terminal status and total duration (idempotent —
// the first call wins, so a handler's deferred finish cannot overwrite
// the middleware's).
func (rt *reqTrace) finish(status int) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if !rt.finished {
		rt.status = status
		rt.dur = time.Since(rt.start)
		rt.finished = true
	}
	rt.mu.Unlock()
}

// serverTiming renders the stages recorded so far as a Server-Timing
// header value — `parse;dur=0.21, compile;dur=0.03, …, total;dur=3.20`,
// durations in milliseconds — for the response being written now, so
// total is measured at header-write time.
func (rt *reqTrace) serverTiming() string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	buf := make([]byte, 0, 128)
	for _, st := range rt.stages {
		d := st.dur
		if !st.done {
			d = time.Since(st.start)
		}
		buf = append(buf, st.name...)
		buf = append(buf, ";dur="...)
		buf = strconv.AppendFloat(buf, float64(d.Microseconds())/1000, 'f', 2, 64)
		if st.name == "cache" && rt.cache != "" {
			buf = append(buf, ";desc="...)
			buf = append(buf, rt.cache...)
		}
		buf = append(buf, ", "...)
	}
	buf = append(buf, "total;dur="...)
	buf = strconv.AppendFloat(buf, float64(time.Since(rt.start).Microseconds())/1000, 'f', 2, 64)
	return string(buf)
}

// StageInfo is one service-level pipeline stage of a recorded request,
// offsets relative to the request start.
type StageInfo struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// SpanNode is one node of a request's span tree: a service stage or an
// engine span, nested by interval containment, with instantaneous
// events attached as zero-duration leaves.
type SpanNode struct {
	Name     string                 `json:"name"`
	StartUS  int64                  `json:"start_us"`
	DurUS    int64                  `json:"dur_us"`
	Attrs    map[string]interface{} `json:"attrs,omitempty"`
	Children []*SpanNode            `json:"children,omitempty"`
}

// RequestTrace is the retained observability record of one request —
// the JSON body of /v1/trace/{id} and the row shape of /v1/requests
// (which omits Spans).
type RequestTrace struct {
	ID          string      `json:"id"`
	Endpoint    string      `json:"endpoint"`
	Method      string      `json:"method"`
	Start       time.Time   `json:"start"`
	DurMS       float64     `json:"dur_ms"`
	Status      int         `json:"status"`
	Cache       string      `json:"cache,omitempty"`
	Incremental string      `json:"incremental,omitempty"`
	Slow        bool        `json:"slow"`
	Stages      []StageInfo `json:"stages,omitempty"`
	// Spans is the full span tree, retained only for slow requests.
	Spans *SpanNode `json:"spans,omitempty"`
	// TruncatedEvents counts engine records evicted from the bounded
	// per-request ring before the tree was built (0 = complete tree).
	TruncatedEvents int64 `json:"truncated_events,omitempty"`
}

// snapshot freezes the record. withSpans builds the span tree from the
// ring; the metadata-only form backs the recent-request table.
func (rt *reqTrace) snapshot(slow, withSpans bool) *RequestTrace {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := &RequestTrace{
		ID:          rt.id,
		Endpoint:    rt.endpoint,
		Method:      rt.method,
		Start:       rt.start,
		DurMS:       float64(rt.dur.Microseconds()) / 1000,
		Status:      rt.status,
		Cache:       rt.cache,
		Incremental: rt.inc,
		Slow:        slow,
	}
	for _, st := range rt.stages {
		out.Stages = append(out.Stages, StageInfo{
			Name:    st.name,
			StartUS: st.start.Sub(rt.start).Microseconds(),
			DurUS:   st.dur.Microseconds(),
		})
	}
	if withSpans && rt.ring != nil {
		events := rt.ring.Events()
		out.TruncatedEvents = rt.ring.Total() - int64(len(events))
		out.Spans = buildSpanTree(rt, events)
	}
	return out
}

// interval pairs a tree node with its absolute extent for containment
// nesting.
type interval struct {
	start, end time.Time
	node       *SpanNode
}

// buildSpanTree assembles the request's span tree: a root covering the
// whole request, service stages and engine spans nested by interval
// containment (the tracer does not thread parent IDs through engine
// code, but wall-clock nesting is exact for the synchronous pipeline),
// and instantaneous events attached to their span by parent ID when
// they carry one. rt.mu must be held.
func buildSpanTree(rt *reqTrace, events []obs.Event) *SpanNode {
	end := rt.start.Add(rt.dur)
	root := &SpanNode{Name: rt.endpoint, StartUS: 0, DurUS: rt.dur.Microseconds()}
	rootIv := interval{start: rt.start, end: end, node: root}

	var ivs []interval
	for _, st := range rt.stages {
		stEnd := st.start.Add(st.dur)
		if !st.done {
			stEnd = end
		}
		ivs = append(ivs, interval{
			start: st.start,
			end:   stEnd,
			node: &SpanNode{
				Name:    "stage:" + st.name,
				StartUS: st.start.Sub(rt.start).Microseconds(),
				DurUS:   st.dur.Microseconds(),
			},
		})
	}

	// Pair span_start/span_end records by span ID.
	type openSpan struct {
		iv   interval
		done bool
	}
	spans := make(map[uint64]*openSpan)
	order := make([]uint64, 0, len(events))
	for _, e := range events {
		switch e.Type {
		case obs.TypeSpanStart:
			spans[e.Span] = &openSpan{iv: interval{
				start: e.Time,
				end:   end,
				node:  &SpanNode{Name: e.Name, StartUS: e.Time.Sub(rt.start).Microseconds(), Attrs: attrMap(e.Attrs)},
			}}
			order = append(order, e.Span)
		case obs.TypeSpanEnd:
			sp, ok := spans[e.Span]
			if !ok { // start evicted from the ring: synthesize from the end record
				sp = &openSpan{iv: interval{
					start: e.Time.Add(-e.Dur),
					node:  &SpanNode{Name: e.Name, StartUS: e.Time.Add(-e.Dur).Sub(rt.start).Microseconds(), Attrs: attrMap(e.Attrs)},
				}}
				spans[e.Span] = sp
				order = append(order, e.Span)
			}
			sp.iv.end = e.Time
			sp.iv.node.DurUS = e.Dur.Microseconds()
			sp.done = true
			mergeAttrs(sp.iv.node, e.Attrs)
		}
	}
	for _, id := range order {
		ivs = append(ivs, spans[id].iv)
	}

	// Nest by containment: wider-first insertion with a stack.
	sort.SliceStable(ivs, func(i, j int) bool {
		if !ivs[i].start.Equal(ivs[j].start) {
			return ivs[i].start.Before(ivs[j].start)
		}
		return ivs[i].end.After(ivs[j].end)
	})
	stack := []interval{rootIv}
	for _, iv := range ivs {
		for len(stack) > 1 && iv.end.After(stack[len(stack)-1].end) {
			stack = stack[:len(stack)-1]
		}
		top := stack[len(stack)-1].node
		top.Children = append(top.Children, iv.node)
		stack = append(stack, iv)
	}

	// Attach instantaneous events: by parent span ID when present, else
	// to the deepest enclosing interval.
	for _, e := range events {
		if e.Type != obs.TypeEvent {
			continue
		}
		leaf := &SpanNode{Name: e.Name, StartUS: e.Time.Sub(rt.start).Microseconds(), Attrs: attrMap(e.Attrs)}
		if sp, ok := spans[e.Parent]; ok && e.Parent != 0 {
			sp.iv.node.Children = append(sp.iv.node.Children, leaf)
			continue
		}
		host := deepest(root, e.Time.Sub(rt.start).Microseconds())
		host.Children = append(host.Children, leaf)
	}
	return root
}

// deepest descends to the deepest already-nested node whose
// [StartUS, StartUS+DurUS] extent covers the offset us (zero-duration
// leaves are never hosts).
func deepest(node *SpanNode, us int64) *SpanNode {
	for {
		next := (*SpanNode)(nil)
		for _, c := range node.Children {
			if c.DurUS > 0 && c.StartUS <= us && us <= c.StartUS+c.DurUS {
				next = c
			}
		}
		if next == nil {
			return node
		}
		node = next
	}
}

// attrMap converts typed attrs into a JSON-renderable map.
func attrMap(attrs []obs.Attr) map[string]interface{} {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]interface{}, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// mergeAttrs folds closing attrs into a span node.
func mergeAttrs(n *SpanNode, attrs []obs.Attr) {
	if len(attrs) == 0 {
		return
	}
	if n.Attrs == nil {
		n.Attrs = make(map[string]interface{}, len(attrs))
	}
	for _, a := range attrs {
		n.Attrs[a.Key] = a.Value()
	}
}

// reqTraceKey carries the record through the request context.
type reqTraceKey struct{}

// traceFrom recovers the record installed by the tracing middleware
// (nil when absent — every reqTrace method tolerates that).
func traceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

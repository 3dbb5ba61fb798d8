package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// attrKind discriminates Attr payloads.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrStr
	attrFloat
	attrBool
)

// Attr is one typed key/value pair on an event. The concrete fields
// avoid interface boxing, so building attrs does not allocate.
type Attr struct {
	Key  string
	kind attrKind
	num  int64
	f    float64
	str  string
}

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: attrInt, num: int64(v)} }

// Int64 builds an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, num: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrStr, str: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's payload as an interface value (for
// tests and rendering; the hot path never calls this).
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrStr:
		return a.str
	case attrFloat:
		return a.f
	case attrBool:
		return a.num != 0
	default:
		return a.num
	}
}

// appendJSON appends `"key":value` to buf.
func (a Attr) appendJSON(buf []byte) []byte {
	buf = strconv.AppendQuote(buf, a.Key)
	buf = append(buf, ':')
	switch a.kind {
	case attrStr:
		buf = strconv.AppendQuote(buf, a.str)
	case attrFloat:
		buf = strconv.AppendFloat(buf, a.f, 'g', -1, 64)
	case attrBool:
		buf = strconv.AppendBool(buf, a.num != 0)
	default:
		buf = strconv.AppendInt(buf, a.num, 10)
	}
	return buf
}

// EventType classifies trace records.
type EventType uint8

// The record types: instantaneous events and span boundaries.
const (
	TypeEvent EventType = iota
	TypeSpanStart
	TypeSpanEnd
)

// String names the type the way the JSONL sink spells it.
func (t EventType) String() string {
	switch t {
	case TypeSpanStart:
		return "span_start"
	case TypeSpanEnd:
		return "span_end"
	default:
		return "event"
	}
}

// Event is one trace record. Span and Parent are 0 when absent; Dur is
// meaningful only for TypeSpanEnd.
type Event struct {
	Time   time.Time
	Type   EventType
	Name   string
	Span   uint64
	Parent uint64
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives trace records. Implementations must be safe for
// concurrent Emit calls.
type Sink interface {
	Emit(e Event)
}

// Tracer hands out spans and events against one sink. The nil tracer
// is the no-op tracer: every method returns immediately, so plumbing a
// nil *Tracer through the engines costs one branch per call site.
type Tracer struct {
	sink Sink
	ids  atomic.Uint64
	now  func() time.Time // test seam; nil means time.Now
}

// NewTracer builds a tracer over the sink; a nil sink yields a
// disabled tracer.
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// Enabled reports whether records will be recorded. Instrumented hot
// loops must guard attr construction with this.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

func (t *Tracer) timestamp() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// Fanout returns a tracer that emits every record to the receiver's
// sink and to extra — the request-tracing hook: a per-request ring can
// observe engine spans without detaching any process-wide sink. A nil
// extra returns the receiver unchanged; a disabled receiver returns a
// tracer over extra alone.
func (t *Tracer) Fanout(extra Sink) *Tracer {
	if extra == nil {
		return t
	}
	if !t.Enabled() {
		return NewTracer(extra)
	}
	return NewTracer(teeSink{t.sink, extra})
}

// teeSink duplicates records to two sinks.
type teeSink struct{ a, b Sink }

// Emit implements Sink.
func (s teeSink) Emit(e Event) {
	s.a.Emit(e)
	s.b.Emit(e)
}

// Event emits an instantaneous record with no span.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.sink.Emit(Event{Time: t.timestamp(), Type: TypeEvent, Name: name, Attrs: attrs})
}

// Span is an in-flight span. The zero value (and any span from a
// disabled tracer) is a no-op: End and Event return immediately.
type Span struct {
	t     *Tracer
	id    uint64
	name  string
	start time.Time
}

// StartSpan opens a span and emits its start record.
func (t *Tracer) StartSpan(name string, attrs ...Attr) Span {
	if !t.Enabled() {
		return Span{}
	}
	sp := Span{t: t, id: t.ids.Add(1), name: name, start: t.timestamp()}
	t.sink.Emit(Event{Time: sp.start, Type: TypeSpanStart, Name: name, Span: sp.id, Attrs: attrs})
	return sp
}

// StartChild opens a span whose start record names s as its parent. A
// child of a no-op span is a no-op.
func (s Span) StartChild(name string, attrs ...Attr) Span {
	if !s.t.Enabled() {
		return Span{}
	}
	sp := Span{t: s.t, id: s.t.ids.Add(1), name: name, start: s.t.timestamp()}
	s.t.sink.Emit(Event{Time: sp.start, Type: TypeSpanStart, Name: name, Span: sp.id, Parent: s.id, Attrs: attrs})
	return sp
}

// Event emits an instantaneous record attributed to the span.
func (s Span) Event(name string, attrs ...Attr) {
	if !s.t.Enabled() {
		return
	}
	s.t.sink.Emit(Event{Time: s.t.timestamp(), Type: TypeEvent, Name: name, Parent: s.id, Attrs: attrs})
}

// End closes the span, emitting its end record with the measured
// duration and any closing attrs.
func (s Span) End(attrs ...Attr) {
	if !s.t.Enabled() {
		return
	}
	now := s.t.timestamp()
	s.t.sink.Emit(Event{Time: now, Type: TypeSpanEnd, Name: s.name, Span: s.id, Dur: now.Sub(s.start), Attrs: attrs})
}

// JSONLSink writes one JSON object per record:
//
//	{"ts":"…","ev":"span_end","name":"core.synthesize","span":3,"dur_us":812,"feasible":true}
//
// Attrs are flattened into the top-level object (names are chosen not
// to collide with the fixed fields). Emit is serialized by a mutex; the
// write buffer is reused across records.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	n   int64
}

// NewJSONLSink wraps the writer.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Events reports how many records have been written.
func (s *JSONLSink) Events() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.buf[:0]
	buf = append(buf, `{"ts":`...)
	buf = e.Time.AppendFormat(append(buf, '"'), time.RFC3339Nano)
	buf = append(buf, `","ev":"`...)
	buf = append(buf, e.Type.String()...)
	buf = append(buf, `","name":`...)
	buf = strconv.AppendQuote(buf, e.Name)
	if e.Span != 0 {
		buf = append(buf, `,"span":`...)
		buf = strconv.AppendUint(buf, e.Span, 10)
	}
	if e.Parent != 0 {
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, e.Parent, 10)
	}
	if e.Type == TypeSpanEnd {
		buf = append(buf, `,"dur_us":`...)
		buf = strconv.AppendInt(buf, e.Dur.Microseconds(), 10)
	}
	for _, a := range e.Attrs {
		buf = append(buf, ',')
		buf = a.appendJSON(buf)
	}
	buf = append(buf, '}', '\n')
	s.buf = buf
	s.n++
	s.w.Write(buf)
}

// RingSink keeps the last N records in memory — the in-process sink
// for tests and post-mortem dumps.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	max   int
	next  int
	total int64
}

// NewRingSink builds a ring holding up to n records (n < 1 is treated
// as 1). The buffer grows with use rather than up front: trustd gives
// every request its own ring, and most requests emit a handful of
// records, not n.
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{max: n}
}

// Emit implements Sink.
func (s *RingSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	if len(s.buf) < s.max {
		s.buf = append(s.buf, e)
		return
	}
	s.buf[s.next] = e
	s.next = (s.next + 1) % s.max
}

// Events returns the retained records, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total reports how many records were emitted, including evicted ones.
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// writeJSONIndent is the shared indented-JSON writer (metrics snapshots
// use it; map keys come out sorted, so output is grep-stable).
func writeJSONIndent(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

package obs

// This file is the span half of the observability layer (DESIGN.md §13):
// a dependency-free Tracer/Span pair with parent/child links, attributes,
// status and W3C traceparent propagation, built to the same nil-safe
// contract as the Observer wrappers — a nil *Tracer starts nil *Spans,
// every Span method is a no-op on the nil receiver, and the whole layer
// consumes no randomness and reads no clock on the nil path, so an
// uninstrumented run stays bit-identical to an instrumented one.
//
// Timing discipline matches the rest of the package: the Tracer stamps
// spans on an injected clock.Clock, never the wall clock directly, so
// traces taken under a fake clock replay deterministically.

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"ist/internal/clock"
)

// TraceID is the 16-byte W3C trace id shared by every span of one trace.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id.
type SpanID [8]byte

// IsZero reports whether the id is unset (all zero — invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText implements encoding.TextMarshaler; a zero id renders empty so
// JSON span records omit absent parents cleanly.
func (t TraceID) MarshalText() ([]byte, error) {
	if t.IsZero() {
		return nil, nil
	}
	return []byte(t.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*t = TraceID{}
		return nil
	}
	if len(b) != 32 {
		return fmt.Errorf("obs: trace id %q is not 32 hex digits", b)
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// MarshalText implements encoding.TextMarshaler.
func (s SpanID) MarshalText() ([]byte, error) {
	if s.IsZero() {
		return nil, nil
	}
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*s = SpanID{}
		return nil
	}
	if len(b) != 16 {
		return fmt.Errorf("obs: span id %q is not 16 hex digits", b)
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// SpanContext is the propagated part of a span: what goes on the wire.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context can be propagated (both ids non-zero).
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set): "00-<trace>-<span>-01".
func (c SpanContext) Traceparent() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// TraceparentHeader is the canonical header name for trace propagation.
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// version byte (per spec, parsers must tolerate future versions) and
// ignores the trace flags. ok is false for malformed or all-zero ids.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	var c SpanContext
	if err := c.Trace.UnmarshalText([]byte(strings.ToLower(parts[1]))); err != nil {
		return SpanContext{}, false
	}
	if err := c.Span.UnmarshalText([]byte(strings.ToLower(parts[2]))); err != nil {
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// Attr is one key/value span attribute. Values are strings: span attributes
// annotate, they are not a metrics channel.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanData is the immutable snapshot of an ended span, what sinks receive
// and stores keep. Parent is zero for trace roots (or for spans whose
// parent lives in another process and was propagated via traceparent).
type SpanData struct {
	Trace  TraceID   `json:"trace"`
	ID     SpanID    `json:"span"`
	Parent SpanID    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	// Status is "" (unset), "ok" or "error"; Note carries the error detail.
	Status string `json:"status,omitempty"`
	Note   string `json:"note,omitempty"`
}

// Duration is the span's wall time on its tracer's clock.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Attr returns the value of the named attribute ("" when absent).
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// SpanSink receives ended spans. Implementations must be safe for
// concurrent use — one tracer may serve many goroutines.
type SpanSink interface {
	OnSpanEnd(SpanData)
}

// Tracer mints spans: it owns the clock spans are stamped on, the RNG span
// and trace ids are drawn from, and the sink ended spans are delivered to.
// A nil *Tracer is the uninstrumented fast path: Start returns a nil *Span
// and nothing downstream allocates, reads the clock, or consumes
// randomness. Safe for concurrent use.
type Tracer struct {
	clk  clock.Clock
	sink SpanSink

	mu  sync.Mutex
	rng *rand.Rand
}

// NewTracer builds a tracer stamping spans on clk (nil = the real clock),
// delivering ended spans to sink (nil = spans vanish on End, attributes and
// all — useful only for overhead tests), drawing ids from rng (nil = a
// private generator seeded from the process id, never the wall clock, so
// runs that inject nothing still replay deterministically per pid).
func NewTracer(clk clock.Clock, sink SpanSink, rng *rand.Rand) *Tracer {
	if clk == nil {
		clk = clock.Real
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(os.Getpid()) ^ 0x697374737061)) // "istspa"
	}
	return &Tracer{clk: clk, sink: sink, rng: rng}
}

// newTraceID draws a non-zero trace id.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	t.mu.Lock()
	for id.IsZero() {
		for i := 0; i < len(id); i += 8 {
			v := t.rng.Uint64()
			for j := 0; j < 8; j++ {
				id[i+j] = byte(v >> (8 * j))
			}
		}
	}
	t.mu.Unlock()
	return id
}

// newSpanID draws a non-zero span id.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	t.mu.Lock()
	for id.IsZero() {
		v := t.rng.Uint64()
		for j := 0; j < 8; j++ {
			id[j] = byte(v >> (8 * j))
		}
	}
	t.mu.Unlock()
	return id
}

// SpanOption configures one Start call.
type SpanOption func(*spanConfig)

type spanConfig struct {
	parent  *Span
	remote  SpanContext
	start   time.Time
	hasTime bool
	attrs   []Attr
}

// ChildOf parents the new span under parent (same trace). A nil parent
// makes the span a trace root.
func ChildOf(parent *Span) SpanOption {
	return func(c *spanConfig) { c.parent = parent }
}

// Remote continues a propagated trace: the new span joins ctx's trace with
// ctx's span as its parent. Invalid contexts are ignored (the span roots a
// fresh trace), so callers can pass whatever the wire carried.
func Remote(ctx SpanContext) SpanOption {
	return func(c *spanConfig) { c.remote = ctx }
}

// StartAt backdates the span to start (for spans reconstructed from a
// measured duration, like LP solves reported by the event stream).
func StartAt(start time.Time) SpanOption {
	return func(c *spanConfig) { c.start, c.hasTime = start, true }
}

// WithAttrs seeds the span's attributes.
func WithAttrs(attrs ...Attr) SpanOption {
	return func(c *spanConfig) { c.attrs = append(c.attrs, attrs...) }
}

// Start opens a span. Precedence for trace placement: an explicit parent
// wins, then a valid remote context, then a fresh root trace. Nil-safe: a
// nil tracer returns a nil span, and a nil parent in ChildOf simply roots.
func (t *Tracer) Start(name string, opts ...SpanOption) *Span {
	if t == nil {
		return nil
	}
	var cfg spanConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Span{tr: t, name: name, id: t.newSpanID(), attrs: cfg.attrs}
	switch {
	case cfg.parent != nil:
		cfg.parent.mu.Lock()
		s.trace, s.parent = cfg.parent.trace, cfg.parent.id
		cfg.parent.mu.Unlock()
	case cfg.remote.Valid():
		s.trace, s.parent = cfg.remote.Trace, cfg.remote.Span
	default:
		s.trace = t.newTraceID()
	}
	if cfg.hasTime {
		s.start = cfg.start
	} else {
		s.start = t.clk.Now()
	}
	return s
}

// Span is one timed operation in a trace. All methods are no-ops on the nil
// receiver — the nil span is how uninstrumented code paths stay free — and
// safe for concurrent use otherwise.
type Span struct {
	tr *Tracer

	mu     sync.Mutex
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	status string
	note   string
	ended  bool
}

// Context returns the span's propagation context (zero on a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanContext{Trace: s.trace, Span: s.id}
}

// TraceID returns the span's trace id (zero on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace
}

// SetAttr adds (or replaces) an attribute. No-op after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i, a := range s.attrs {
		if a.Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetStatus records the span's outcome: err == nil marks "ok", otherwise
// "error" with the error text as the note. No-op after End.
func (s *Span) SetStatus(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if err == nil {
		s.status, s.note = "ok", ""
	} else {
		s.status, s.note = "error", err.Error()
	}
}

// StartChild opens a child span under s on s's tracer. Nil-safe: the child
// of a nil span is nil, so instrumentation chains through helpers without
// ever checking.
func (s *Span) StartChild(name string, opts ...SpanOption) *Span {
	if s == nil {
		return nil
	}
	return s.tr.Start(name, append([]SpanOption{ChildOf(s)}, opts...)...)
}

// End closes the span: stamps the end time on the tracer's clock and
// delivers the snapshot to the tracer's sink. Idempotent; the first End
// wins. EndAt is the backdating variant for reconstructed spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(s.tr.clk.Now())
}

// EndAt is End with an explicit end time (reconstructed spans).
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.endAt(end)
}

func (s *Span) endAt(end time.Time) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		End:    end,
		Attrs:  append([]Attr(nil), s.attrs...),
		Status: s.status,
		Note:   s.note,
	}
	s.mu.Unlock()
	if s.tr.sink != nil {
		s.tr.sink.OnSpanEnd(data)
	}
}

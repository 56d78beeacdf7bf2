package obs

// SpanStore keeps recently ended spans in memory, grouped by trace, so
// /debug/ist/traces can serve span trees and waterfalls without any
// external collector, and the server's flight dumps can read the moments
// before an anomaly back out of it. It is strictly bounded: at most
// maxTraces traces (least-recently-updated evicted first) of at most
// maxSpansPerTrace spans each, so a chatty session can never grow the
// process heap unboundedly. A trace at its cap drops its oldest span for
// each new one: what led up to the latest span is what an operator needs.

import (
	"fmt"
	"html"
	"io"
	"sort"
	"sync"
	"time"
)

// Default bounds for NewSpanStore(0, 0).
const (
	DefaultMaxTraces        = 256
	DefaultMaxSpansPerTrace = 2048
)

// spanChunk bounds a trace's unused span slots. One slice grown by append
// doubles its capacity, so a store full of traces just past a power of two
// would hold nearly twice the memory its spans need. A trace's first chunk
// grows by append up to spanChunk spans (most traces are short); after
// that, chunks of spanChunk spans are allocated whole.
const spanChunk = 16

type traceEntry struct {
	chunks  [][]SpanData // spans in arrival order; only the last chunk has room
	head    int          // leading slots of chunks[0] whose spans were dropped
	n       int          // spans stored
	updated int64        // store-local tick of last append, for LRU eviction
	dropped int          // oldest spans discarded to keep the trace at its cap
}

// add appends d, first dropping the oldest span when the trace already
// holds max spans.
func (e *traceEntry) add(d SpanData, max int) {
	if e.n >= max {
		e.chunks[0][e.head] = SpanData{} // let its attrs be collected
		e.head++
		e.n--
		e.dropped++
		if e.head == len(e.chunks[0]) {
			e.chunks, e.head = e.chunks[1:], 0
		}
	}
	last := len(e.chunks) - 1
	switch {
	case last < 0:
		e.chunks = append(e.chunks, nil)
		last = 0
	case len(e.chunks[last]) == cap(e.chunks[last]) && cap(e.chunks[last]) >= spanChunk:
		e.chunks = append(e.chunks, make([]SpanData, 0, spanChunk))
		last++
	}
	e.chunks[last] = append(e.chunks[last], d)
	e.n++
}

// chunk returns the stored spans of chunk i (the dropped head excluded).
func (e *traceEntry) chunk(i int) []SpanData {
	if i == 0 {
		return e.chunks[0][e.head:]
	}
	return e.chunks[i]
}

// spans returns a copy of the stored spans in arrival order.
func (e *traceEntry) spans() []SpanData {
	out := make([]SpanData, 0, e.n)
	for i := range e.chunks {
		out = append(out, e.chunk(i)...)
	}
	return out
}

// SpanStore is a bounded in-memory span repository implementing SpanSink.
type SpanStore struct {
	mu        sync.Mutex
	traces    map[TraceID]*traceEntry
	tick      int64
	maxTraces int
	maxSpans  int
}

// NewSpanStore builds a store holding at most maxTraces traces of
// maxSpansPerTrace spans each (<=0 picks the defaults).
func NewSpanStore(maxTraces, maxSpansPerTrace int) *SpanStore {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &SpanStore{
		traces:    make(map[TraceID]*traceEntry),
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
	}
}

// OnSpanEnd implements SpanSink.
func (s *SpanStore) OnSpanEnd(d SpanData) {
	if d.Trace.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	e := s.traces[d.Trace]
	if e == nil {
		if len(s.traces) >= s.maxTraces {
			s.evictOldestLocked()
		}
		e = &traceEntry{}
		s.traces[d.Trace] = e
	}
	e.updated = s.tick
	e.add(d, s.maxSpans)
}

func (s *SpanStore) evictOldestLocked() {
	var victim TraceID
	oldest := int64(1<<63 - 1)
	for id, e := range s.traces {
		if e.updated < oldest {
			oldest, victim = e.updated, id
		}
	}
	delete(s.traces, victim)
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	Trace   TraceID   `json:"trace"`
	Root    string    `json:"root,omitempty"` // name of the root span, if ended
	Spans   int       `json:"spans"`
	Dropped int       `json:"dropped,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// Traces lists the stored traces, most recently updated first.
func (s *SpanStore) Traces() []TraceSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	type row struct {
		sum  TraceSummary
		tick int64
	}
	rows := make([]row, 0, len(s.traces))
	for id, e := range s.traces {
		sum := TraceSummary{Trace: id, Spans: e.n, Dropped: e.dropped}
		for ci := range e.chunks {
			for i, sp := range e.chunk(ci) {
				if (ci == 0 && i == 0) || sp.Start.Before(sum.Start) {
					sum.Start = sp.Start
				}
				if sp.End.After(sum.End) {
					sum.End = sp.End
				}
				if sp.Parent.IsZero() {
					sum.Root = sp.Name
				}
			}
		}
		rows = append(rows, row{sum, e.updated})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].tick > rows[j].tick })
	out := make([]TraceSummary, len(rows))
	for i, r := range rows {
		out[i] = r.sum
	}
	return out
}

// Trace returns a copy of the stored spans of one trace in arrival order
// (nil if unknown) plus how many older spans the per-trace cap discarded.
func (s *SpanStore) Trace(id TraceID) (spans []SpanData, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.traces[id]
	if e == nil {
		return nil, 0
	}
	return e.spans(), e.dropped
}

// SpanNode is one node of an assembled span tree.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildTree assembles spans into a forest. Spans whose parent is absent
// (still open, evicted, or living in another process — a client attempt
// span is a parent the server never stores) become roots themselves, so a
// partial trace still renders instead of vanishing. Roots and children are
// ordered by start time; ties break on span id for determinism.
func BuildTree(spans []SpanData) []*SpanNode {
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, d := range spans {
		nodes[d.ID] = &SpanNode{SpanData: d}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p, ok := nodes[n.Parent]; ok && !n.Parent.IsZero() && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var order func([]*SpanNode)
	order = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].ID.String() < ns[j].ID.String()
		})
		for _, n := range ns {
			order(n.Children)
		}
	}
	order(roots)
	return roots
}

// WriteWaterfall renders the spans of one trace as a self-contained HTML
// waterfall — zero scripts, zero external assets, just nested divs with
// offset/width computed server-side. Meant for a human squinting at one
// slow question, not for a dashboard.
func WriteWaterfall(w io.Writer, trace TraceID, spans []SpanData) error {
	roots := BuildTree(spans)
	var min, max time.Time
	for i, d := range spans {
		if i == 0 || d.Start.Before(min) {
			min = d.Start
		}
		if d.End.After(max) {
			max = d.End
		}
	}
	total := max.Sub(min)
	if total <= 0 {
		total = time.Nanosecond
	}
	if _, err := fmt.Fprintf(w, waterfallHeader, trace.String(), trace.String(), len(spans), total); err != nil {
		return err
	}
	var walk func(ns []*SpanNode, depth int) error
	walk = func(ns []*SpanNode, depth int) error {
		for _, n := range ns {
			left := float64(n.Start.Sub(min)) / float64(total) * 100
			width := float64(n.Duration()) / float64(total) * 100
			if width < 0.2 {
				width = 0.2
			}
			class := "span"
			if n.Status == "error" {
				class = "span err"
			}
			title := fmt.Sprintf("%s · %s · span %s", n.Name, n.Duration(), n.ID)
			for _, a := range n.Attrs {
				title += fmt.Sprintf(" · %s=%s", a.Key, a.Value)
			}
			_, err := fmt.Fprintf(w,
				"<div class=\"row\" style=\"padding-left:%dpx\"><span class=\"name\">%s</span>"+
					"<span class=\"lane\"><span class=\"%s\" style=\"left:%.2f%%;width:%.2f%%\" title=\"%s\"></span></span>"+
					"<span class=\"dur\">%s</span></div>\n",
				depth*14, html.EscapeString(n.Name), class, left, width,
				html.EscapeString(title), n.Duration())
			if err != nil {
				return err
			}
			if err := walk(n.Children, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(roots, 0); err != nil {
		return err
	}
	_, err := io.WriteString(w, "</body></html>\n")
	return err
}

const waterfallHeader = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>trace %s</title><style>
body{font:13px/1.5 monospace;margin:1em;background:#fafafa;color:#222}
h1{font-size:15px}
.row{display:flex;align-items:center;border-bottom:1px solid #eee}
.name{flex:0 0 22em;overflow:hidden;text-overflow:ellipsis;white-space:nowrap}
.lane{flex:1;position:relative;height:14px;background:#f0f0f0}
.span{position:absolute;top:2px;height:10px;background:#4a7fb5;border-radius:2px}
.span.err{background:#c0392b}
.dur{flex:0 0 8em;text-align:right;color:#666}
</style></head><body>
<h1>trace %s · %d spans · %s</h1>
`

package obs

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ist/internal/clock"
)

func testTracer(sink SpanSink, seed int64) (*Tracer, *clock.Fake) {
	fake := clock.NewFake(time.Unix(1_700_000_000, 0))
	return NewTracer(fake, sink, rand.New(rand.NewSource(seed))), fake
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr, _ := testTracer(nil, 1)
	ctx := tr.Start("root").Context()
	if !ctx.Valid() {
		t.Fatal("fresh span has invalid context")
	}
	got, ok := ParseTraceparent(ctx.Traceparent())
	if !ok || got != ctx {
		t.Fatalf("ParseTraceparent(%q) = %v, %v; want %v", ctx.Traceparent(), got, ok, ctx)
	}
	for _, bad := range []string{
		"", "garbage", "00-zz-yy-01",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero ids are invalid per W3C
		"00-abc-def-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed value", bad)
		}
	}
	// Any version byte must parse (future-proofing required by the spec).
	if _, ok := ParseTraceparent("cc-" + ctx.Trace.String() + "-" + ctx.Span.String() + "-00"); !ok {
		t.Error("ParseTraceparent rejected a future version byte")
	}
}

func TestNilTracerIsFullyInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("nothing", WithAttrs(Attr{Key: "k", Value: "v"}))
	if sp != nil {
		t.Fatal("nil tracer started a non-nil span")
	}
	// Every method must be callable on the nil span without panicking.
	sp.SetAttr("a", "b")
	sp.SetStatus(nil)
	sp.End()
	sp.EndAt(time.Time{})
	if c := sp.StartChild("child"); c != nil {
		t.Error("child of a nil span is non-nil")
	}
	if ctx := sp.Context(); ctx.Valid() {
		t.Error("nil span has a valid context")
	}
	if id := sp.TraceID(); !id.IsZero() {
		t.Error("nil span has a trace id")
	}
	if NewSpanObserver(nil, nil) != nil {
		t.Error("NewSpanObserver with nil tracer is non-nil")
	}
	var so *SpanObserver
	so.Event(Event{Kind: KindQuestionAsked}) // must not panic
	so.Finish()
	if so.QuestionSpan() != nil {
		t.Error("nil SpanObserver has a question span")
	}
}

// TestNilTracerConsumesNoRandomness is half of the bit-identical guarantee:
// an algorithm run holding a nil tracer must leave an injected RNG exactly
// where an uninstrumented run would.
func TestNilTracerConsumesNoRandomness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := rng.Uint64()
	rng = rand.New(rand.NewSource(7))
	var tr *Tracer
	for i := 0; i < 10; i++ {
		sp := tr.Start("x")
		sp.StartChild("y").End()
		sp.End()
	}
	if got := rng.Uint64(); got != want {
		t.Fatalf("nil-tracer path consumed randomness: next draw %d, want %d", got, want)
	}
}

func TestSpanLifecycle(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, fake := testTracer(store, 2)

	root := tr.Start("session", WithAttrs(Attr{Key: "session", Value: "s1"}))
	fake.Advance(time.Second)
	child := root.StartChild("question")
	child.SetAttr("seq", "0")
	child.SetStatus(nil)
	fake.Advance(2 * time.Second)
	child.End()
	child.End() // idempotent: only one delivery
	root.End()

	got, _ := store.Trace(root.TraceID())
	if len(got) != 2 {
		t.Fatalf("sink saw %d spans, want 2", len(got))
	}
	q, s := got[0], got[1]
	if q.Name != "question" || s.Name != "session" {
		t.Fatalf("delivery order %q, %q; want question then session", q.Name, s.Name)
	}
	if q.Trace != s.Trace {
		t.Error("child span not in parent's trace")
	}
	if q.Parent != s.ID {
		t.Error("child's parent is not the root span")
	}
	if q.Duration() != 2*time.Second {
		t.Errorf("child duration %s, want 2s", q.Duration())
	}
	if q.Status != "ok" || q.Attr("seq") != "0" {
		t.Errorf("child status %q attrs %v", q.Status, q.Attrs)
	}
	if s.Duration() != 3*time.Second {
		t.Errorf("root duration %s, want 3s", s.Duration())
	}
}

func TestSetStatusError(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, _ := testTracer(store, 3)
	sp := tr.Start("x")
	sp.SetStatus(errBoom)
	sp.End()
	spans, _ := store.Trace(sp.TraceID())
	if len(spans) != 1 {
		t.Fatalf("store holds %d spans, want 1", len(spans))
	}
	if got := spans[0]; got.Status != "error" || got.Note != "boom" {
		t.Fatalf("status %q note %q, want error/boom", got.Status, got.Note)
	}
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom = boomErr{}

func TestRemoteContinuesTrace(t *testing.T) {
	clientTr, _ := testTracer(nil, 4)
	serverStore := NewSpanStore(0, 0)
	serverTr, _ := testTracer(serverStore, 5)

	attempt := clientTr.Start("attempt")
	wire := attempt.Context().Traceparent()

	remote, ok := ParseTraceparent(wire)
	if !ok {
		t.Fatal("server failed to parse the propagated header")
	}
	srv := serverTr.Start("session", Remote(remote))
	srv.End()

	if srv.Context().Trace != attempt.Context().Trace {
		t.Fatal("server span did not join the client's trace")
	}
	spans, _ := serverStore.Trace(attempt.Context().Trace)
	if len(spans) != 1 || spans[0].Parent != attempt.Context().Span {
		t.Fatalf("stored server span %+v does not hang off the client attempt", spans)
	}
	// An invalid remote context roots a fresh trace instead of failing.
	fresh := serverTr.Start("session", Remote(SpanContext{}))
	if fresh.Context().Trace == attempt.Context().Trace || fresh.Context().Trace.IsZero() {
		t.Error("invalid remote context should root a fresh trace")
	}
}

// TestTracerConcurrentSessions exercises the locking under -race: many
// goroutines, each a session rooting its own trace on one shared tracer
// (the server's arrangement) that delivers into one SpanStore, plus
// concurrent attribute writes on a shared span.
func TestTracerConcurrentSessions(t *testing.T) {
	store := NewSpanStore(64, 128)
	tr, _ := testTracer(store, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.Start("session")
			for i := 0; i < 50; i++ {
				q := root.StartChild("question")
				q.SetAttr("seq", "0")
				q.SetStatus(nil)
				q.End()
			}
			root.End()
		}()
	}
	// One shared span hammered from several goroutines.
	sp := tr.Start("shared")
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.SetAttr("k", "v")
				_ = sp.Context()
				_ = sp.TraceID()
				sp.StartChild("c").End()
			}
		}(g)
	}
	wg.Wait()
	sp.End()
	if got := len(store.Traces()); got != 9 {
		t.Fatalf("store holds %d traces, want 9 (8 sessions + 1 shared)", got)
	}
	for _, sum := range store.Traces() {
		spans, _ := store.Trace(sum.Trace)
		for _, d := range spans {
			if d.Trace != sum.Trace {
				t.Fatal("span filed under the wrong trace")
			}
		}
	}
}

// TestMetricsBridgeConcurrent drives the Metrics observer from concurrent
// sessions under -race: counters are atomic and the histogram is mutexed,
// so parallel events must neither race nor lose counts.
func TestMetricsBridgeConcurrent(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	var wg sync.WaitGroup
	const goroutines, events = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				m.Event(Event{Kind: KindAnswerReceived})
				m.Event(Event{Kind: KindLPSolve, Status: "optimal", Count: 3, Duration: time.Millisecond})
				m.Event(Event{Kind: KindHalfspaceCut})
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"ist_questions_total 1600",
		"ist_lp_solves_total 1600",
		"ist_lp_iterations_total 4800",
		"ist_halfspace_cuts_total 1600",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSpanStoreBounds(t *testing.T) {
	store := NewSpanStore(2, 3)
	tr, _ := testTracer(store, 6)
	var traces []TraceID
	for i := 0; i < 3; i++ {
		root := tr.Start("session")
		traces = append(traces, root.TraceID())
		for j := 0; j < 5; j++ {
			root.StartChild("q").End()
		}
		root.End()
	}
	// Trace 0 was least recently updated: evicted by trace 2's arrival.
	if spans, _ := store.Trace(traces[0]); spans != nil {
		t.Error("oldest trace survived past the maxTraces cap")
	}
	spans, dropped := store.Trace(traces[2])
	if len(spans) != 3 {
		t.Errorf("per-trace cap kept %d spans, want 3", len(spans))
	}
	if dropped != 3 { // 6 ended spans (5 q + root), cap 3
		t.Errorf("dropped = %d, want 3", dropped)
	}
	sums := store.Traces()
	if len(sums) != 2 || sums[0].Trace != traces[2] {
		t.Errorf("listing = %+v, want trace %s first", sums, traces[2])
	}
}

// TestSpanStoreChunks stores traces that span several chunks, or part of
// one: every span comes back in arrival order, the listing covers all of
// them, the per-trace cap still applies mid-chunk, no trace holds a
// chunk's worth of unused slots, and a short trace no more than twice its
// spans.
func TestSpanStoreChunks(t *testing.T) {
	for _, c := range []struct{ children, maxSpans int }{
		{2*spanChunk + 5, 0}, {2*spanChunk + 5, spanChunk + 3}, {spanChunk, 0}, {2, 0}, {4, 0}, {8, 0},
	} {
		children, maxSpans := c.children, c.maxSpans
		store := NewSpanStore(4, maxSpans)
		tr, clk := testTracer(store, 8)
		t0 := clk.Now()
		root := tr.Start("session")
		var want []SpanID
		for j := 0; j < children; j++ {
			clk.Advance(time.Millisecond)
			q := tr.Start("q", ChildOf(root))
			want = append(want, q.Context().Span)
			q.End()
		}
		clk.Advance(time.Millisecond)
		root.End()
		want = append(want, root.Context().Span)

		kept := len(want)
		if maxSpans > 0 {
			kept = maxSpans
		}
		spans, dropped := store.Trace(root.TraceID())
		if len(spans) != kept || dropped != len(want)-kept {
			t.Fatalf("maxSpans %d: kept %d spans, dropped %d; want %d and %d", maxSpans, len(spans), dropped, kept, len(want)-kept)
		}
		want = want[len(want)-kept:] // a capped trace keeps its newest spans
		for i, d := range spans {
			if d.ID != want[i] {
				t.Fatalf("maxSpans %d: span %d is %s, want %s (arrival order)", maxSpans, i, d.ID, want[i])
			}
		}
		first, last := spans[0].Start, spans[0].End
		for _, d := range spans {
			if d.Start.Before(first) {
				first = d.Start
			}
			if d.End.After(last) {
				last = d.End
			}
		}
		sums := store.Traces()
		if len(sums) != 1 || sums[0].Spans != kept || !sums[0].Start.Equal(first) || !sums[0].End.Equal(last) {
			t.Fatalf("maxSpans %d: listing %+v, want %d spans from %v to %v", maxSpans, sums, kept, first, last)
		}
		if maxSpans == 0 && (sums[0].Root != "session" || !first.Equal(t0)) {
			t.Fatalf("listing %+v: want the session root, starting at %v", sums[0], t0)
		}
		e := store.traces[root.TraceID()]
		slots := 0
		for _, c := range e.chunks {
			slots += cap(c)
		}
		if slots-e.n-e.head >= spanChunk || (e.n < spanChunk && slots > 2*e.n) {
			t.Fatalf("%d children, maxSpans %d: %d slots for %d spans", children, maxSpans, slots, e.n)
		}
	}
}

func TestBuildTreeOrphans(t *testing.T) {
	tr, _ := testTracer(nil, 7)
	root := tr.Start("root")
	child := root.StartChild("child")
	grand := child.StartChild("grand")

	// The store only ever saw child and grand: root is still open (or
	// evicted). grand must nest under child; child becomes a root itself.
	spans := []SpanData{
		{Trace: root.TraceID(), ID: grand.Context().Span, Parent: child.Context().Span, Name: "grand"},
		{Trace: root.TraceID(), ID: child.Context().Span, Parent: root.Context().Span, Name: "child"},
	}
	forest := BuildTree(spans)
	if len(forest) != 1 || forest[0].Name != "child" {
		t.Fatalf("forest roots = %+v, want the orphaned child", forest)
	}
	if len(forest[0].Children) != 1 || forest[0].Children[0].Name != "grand" {
		t.Fatalf("child's children = %+v, want grand", forest[0].Children)
	}
}

func TestWaterfallSmoke(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, fake := testTracer(store, 8)
	root := tr.Start("session")
	q := root.StartChild("question")
	fake.Advance(time.Second)
	q.SetStatus(errBoom)
	q.End()
	root.End()

	spans, _ := store.Trace(root.TraceID())
	var sb strings.Builder
	if err := WriteWaterfall(&sb, root.TraceID(), spans); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>", root.TraceID().String(), "session", "question", "span err",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("waterfall missing %q", want)
		}
	}
}

// TestSpanObserverAssemblesTree feeds a realistic event sequence through the
// SpanObserver and checks the span-tree shape the CI smoke asserts on: each
// question span opens at the first event computing toward that question (the
// hull LP solves of session create for question 0) and closes when its
// answer arrives, with the phase spans as its children.
func TestSpanObserverAssemblesTree(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, fake := testTracer(store, 9)
	root := tr.Start("session")
	so := NewSpanObserver(tr, root)

	// Create: two solves compute question 0; the user thinks for a second.
	so.Event(Event{Kind: KindLPSolve, Status: "optimal", Count: 4, Duration: 100 * time.Millisecond})
	so.Event(Event{Kind: KindLPSolve, Status: "optimal", Count: 2, Duration: 50 * time.Millisecond})
	so.Event(Event{Kind: KindQuestionAsked, I: 1, J: 2})
	fake.Advance(time.Second)
	so.Event(Event{Kind: KindAnswerReceived, Answer: true})
	// The answer triggers a cut that yields question 1.
	so.Event(Event{Kind: KindHalfspaceCut, Status: "upper", Before: 5, After: 6})
	so.Event(Event{Kind: KindQuestionAsked, I: 3, J: 4})
	fake.Advance(time.Second)
	so.Event(Event{Kind: KindAnswerReceived, Answer: false})
	// Trailing certification compute: a prune, then the session finishes.
	so.Event(Event{Kind: KindCandidatePruned, Count: 2})
	so.Finish()
	root.End()

	spans, _ := store.Trace(root.TraceID())
	forest := BuildTree(spans)
	if len(forest) != 1 || forest[0].Name != "session" {
		t.Fatalf("root = %+v, want the session span", forest)
	}
	var questions []*SpanNode
	for _, n := range forest[0].Children {
		if n.Name == "question" {
			questions = append(questions, n)
		}
	}
	if len(questions) != 3 {
		t.Fatalf("%d question spans, want 2 answered + 1 certification tail", len(questions))
	}
	q0 := questions[0]
	if q0.Attr("seq") != "0" || q0.Attr("i") != "1" || q0.Attr("answer") != "true" {
		t.Errorf("first question attrs = %v", q0.Attrs)
	}
	// The solves that computed question 0 are its children — that is the
	// question→lp-solve nesting the waterfall promises.
	names := map[string]int{}
	for _, c := range q0.Children {
		names[c.Name]++
	}
	if names["lp-solve"] != 2 {
		t.Fatalf("first question's children = %v, want two lp-solves", names)
	}
	first := q0.Children[0]
	if first.Duration() != 100*time.Millisecond {
		t.Errorf("lp-solve duration %s, want the reported 100ms", first.Duration())
	}
	if first.Attr("iterations") != "4" {
		t.Errorf("lp-solve iterations attr = %q", first.Attr("iterations"))
	}
	if q1 := questions[1]; q1.Attr("i") != "3" || q1.Attr("answer") != "false" {
		t.Errorf("second question attrs = %v", q1.Attrs)
	} else if got := len(q1.Children); got != 1 || q1.Children[0].Name != "halfspace-cut" {
		t.Errorf("second question's children = %d %v, want the one halfspace-cut", got, q1.Children)
	}
	// The tail span brackets the certification compute: no question surfaced.
	tail := questions[2]
	if tail.Attr("final") != "true" || tail.Attr("i") != "" {
		t.Errorf("certification tail attrs = %v", tail.Attrs)
	}
	if got := len(tail.Children); got != 1 || tail.Children[0].Name != "prune" {
		t.Errorf("tail children = %d, want the one prune", got)
	}
	// Question 0 spans compute + think time: it closes when its answer lands.
	if got := q0.Duration(); got != time.Second {
		t.Errorf("question 0 lasted %s, want the 1s think time", got)
	}
}

// TestSpanObserverStopCheckSpans: an RH-shaped dialogue, whose compute is
// stopping-rule checks and cuts with no LP solve, shows each stop check as
// a point span under the question it computed toward, with its outcome.
func TestSpanObserverStopCheckSpans(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, fake := testTracer(store, 11)
	root := tr.Start("session")
	so := NewSpanObserver(tr, root)

	// Question 0: a failed check opens the span.
	so.Event(Event{Kind: KindStopConditionCheck, OK: false})
	so.Event(Event{Kind: KindQuestionAsked, I: 1, J: 2})
	fake.Advance(time.Second)
	so.Event(Event{Kind: KindAnswerReceived, Answer: true})
	// The answer's cut, then the check that certifies: the tail.
	so.Event(Event{Kind: KindHalfspaceCut, Status: "intersect", Before: 4, After: 5})
	so.Event(Event{Kind: KindStopConditionCheck, OK: true})
	so.Finish()
	root.End()

	spans, _ := store.Trace(root.TraceID())
	forest := BuildTree(spans)
	if len(forest) != 1 {
		t.Fatalf("forest = %+v, want the session span", forest)
	}
	qs := forest[0].Children
	if len(qs) != 2 || qs[0].Name != "question" || qs[1].Name != "question" {
		t.Fatalf("session children = %v, want question 0 and the tail", qs)
	}
	wantChildren := [][]string{{"stop-check"}, {"halfspace-cut", "stop-check"}}
	wantCertified := []string{"false", "true"}
	for qi, q := range qs {
		var names []string
		for _, c := range q.Children {
			names = append(names, c.Name)
		}
		if !slices.Equal(names, wantChildren[qi]) {
			t.Fatalf("question %d children = %v, want %v", qi, names, wantChildren[qi])
		}
		check := q.Children[len(q.Children)-1]
		if check.Attr("certified") != wantCertified[qi] {
			t.Errorf("question %d stop-check certified = %q, want %q", qi, check.Attr("certified"), wantCertified[qi])
		}
		if check.Duration() != 0 {
			t.Errorf("question %d stop-check lasted %s, want a point span", qi, check.Duration())
		}
	}
	if qs[0].Attr("i") != "1" || qs[1].Attr("final") != "true" {
		t.Errorf("question attrs = %v / %v", qs[0].Attrs, qs[1].Attrs)
	}
}

// TestSpanObserverLazyWindows: no spans at all without events, and the
// question span only opens once something computes toward it.
func TestSpanObserverLazyWindows(t *testing.T) {
	store := NewSpanStore(0, 0)
	tr, _ := testTracer(store, 10)
	root := tr.Start("session")
	so := NewSpanObserver(tr, root)

	if so.QuestionSpan() != nil {
		t.Error("question span open before any event")
	}
	so.Event(Event{Kind: KindLPSolve, Status: "optimal", Count: 1})
	q := so.QuestionSpan()
	if q == nil {
		t.Fatal("no question span after an lp-solve event")
	}
	so.Event(Event{Kind: KindQuestionAsked, I: 0, J: 1})
	if so.QuestionSpan() != q {
		t.Error("question-asked replaced the window its compute opened")
	}
	so.Event(Event{Kind: KindAnswerReceived, Answer: true})
	if so.QuestionSpan() != nil {
		t.Error("question span still open after its answer")
	}
	so.Finish()
	root.End()

	spans, _ := store.Trace(root.TraceID())
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["lp-solve"].Parent != byName["question"].ID {
		t.Error("create-phase lp-solve is not a child of the first question span")
	}
	if byName["question"].Parent != root.Context().Span {
		t.Error("question span is not a child of the session root")
	}
}

// TestSpanStoreCapKeepsNewest: a trace past its per-trace cap keeps its
// newest spans in arrival order — the moments before whatever went wrong —
// and counts the oldest it let go as dropped, across chunk boundaries too.
func TestSpanStoreCapKeepsNewest(t *testing.T) {
	for _, c := range []struct{ spans, maxSpans int }{{12, 5}, {3*spanChunk + 7, spanChunk + 3}, {4, 1}} {
		store := NewSpanStore(0, c.maxSpans)
		tr, clk := testTracer(store, 12)
		root := tr.Start("session")
		for i := 0; i < c.spans; i++ {
			clk.Advance(time.Millisecond)
			sp := root.StartChild("q")
			sp.SetAttr("n", strconv.Itoa(i))
			sp.End()
		}
		spans, dropped := store.Trace(root.TraceID())
		if len(spans) != c.maxSpans || dropped != c.spans-c.maxSpans {
			t.Fatalf("%d spans, cap %d: kept %d, dropped %d; want %d and %d",
				c.spans, c.maxSpans, len(spans), dropped, c.maxSpans, c.spans-c.maxSpans)
		}
		for i, d := range spans {
			if want := strconv.Itoa(c.spans - c.maxSpans + i); d.Attr("n") != want {
				t.Fatalf("cap %d: span %d is n=%s, want n=%s (newest, arrival order)", c.maxSpans, i, d.Attr("n"), want)
			}
		}
		sums := store.Traces()
		if len(sums) != 1 || sums[0].Spans != c.maxSpans || sums[0].Dropped != dropped || !sums[0].Start.Equal(spans[0].Start) {
			t.Fatalf("cap %d: listing %+v, want %d spans from %v", c.maxSpans, sums, c.maxSpans, spans[0].Start)
		}
	}
}

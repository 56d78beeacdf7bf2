package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ist"
	"ist/internal/obs"
)

func scrape(t *testing.T, srv *Server) (string, string) {
	t.Helper()
	rec := doRaw(t, srv, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: code %d", rec.Code)
	}
	return rec.Body.String(), rec.Header().Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _, hidden := newTestServer(t)

	// Before any session: every standard metric is exposed at zero.
	body, ctype := scrape(t, srv)
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ctype)
	}
	for _, name := range []string{
		obs.MetricQuestions, obs.MetricLPSolves, obs.MetricCuts,
		obs.MetricQuestionLatency, obs.MetricQuestionsCertify,
		obs.MetricSessionsTotal, obs.MetricSessionsLive,
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("metric %s missing from exposition:\n%s", name, body)
		}
	}
	if !strings.Contains(body, obs.MetricQuestions+" 0\n") {
		t.Fatalf("fresh server should expose zero questions:\n%s", body)
	}

	_, st := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	st, ok := drive(t, srv, st, hidden)
	if !ok {
		t.Fatal("session did not finish")
	}

	body, _ = scrape(t, srv)
	if strings.Contains(body, obs.MetricQuestions+" 0\n") {
		t.Fatalf("questions counter did not move:\n%s", body)
	}
	wantLines := []string{
		obs.MetricSessionsTotal + " 1",
		obs.MetricSessionsLive + " 1", // finished but not yet deleted/expired
		obs.MetricQuestionsCertify + "_count 1",
	}
	for _, line := range wantLines {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing %q in exposition:\n%s", line, body)
		}
	}
	// Every answered question was timed into the latency histogram.
	if !strings.Contains(body, obs.MetricQuestionLatency+"_count "+itoa(st.Questions)+"\n") {
		t.Errorf("latency histogram count != %d questions:\n%s", st.Questions, body)
	}
	// RH cuts its polytope once per answer.
	if !strings.Contains(body, obs.MetricCuts+" "+itoa(st.Questions)+"\n") {
		t.Errorf("cut counter != %d answers:\n%s", st.Questions, body)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestMetricsEndpointMethod(t *testing.T) {
	srv, _, _ := newTestServer(t)
	rec := doRaw(t, srv, http.MethodPost, "/metrics", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /metrics: code %d, want 404", rec.Code)
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := doRaw(t, srv, http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: code %d", path, rec.Code)
		}
	}
	rec := doRaw(t, srv, http.MethodGet, "/debug/pprof/goroutine?debug=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("goroutine profile: code %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("goroutine profile has no content")
	}
}

func TestHealthzSessionsTotal(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, a := do(t, srv, http.MethodPost, "/sessions", nil)
	_, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	doRaw(t, srv, http.MethodDelete, "/sessions/"+a.ID, "")

	rec := doRaw(t, srv, http.MethodGet, "/healthz", "")
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 1 {
		t.Fatalf("live sessions = %d, want 1", h.Sessions)
	}
	if h.SessionsTotal != 2 {
		t.Fatalf("total sessions = %d, want 2 (deletion must not erase history)", h.SessionsTotal)
	}
}

func TestTraceDirWritesJSONL(t *testing.T) {
	band, k, hidden := testBand(t)
	dir := t.TempDir()
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	_, st := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	st, ok := drive(t, srv, st, hidden)
	if !ok {
		t.Fatal("session did not finish")
	}

	f, err := os.Open(filepath.Join(dir, st.ID+".jsonl"))
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	defer f.Close()
	var events, answers int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Seq  int64   `json:"seq"`
			T    float64 `json:"tSeconds"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events++
		if rec.Seq != int64(events) {
			t.Fatalf("line %d has seq %d", events, rec.Seq)
		}
		if rec.Kind == string(obs.KindAnswerReceived) {
			answers++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if answers != st.Questions {
		t.Fatalf("trace has %d answer events, session answered %d", answers, st.Questions)
	}
}

// TestTraceDirSurvivesDelete asserts aborting a session closes its trace
// cleanly (the file stays, the stream just ends).
func TestTraceDirSurvivesDelete(t *testing.T) {
	band, k, _ := testBand(t)
	dir := t.TempDir()
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, TraceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	doRaw(t, srv, http.MethodDelete, "/sessions/"+st.ID, "")
	if _, err := os.Stat(filepath.Join(dir, st.ID+".jsonl")); err != nil {
		t.Fatalf("trace file gone after delete: %v", err)
	}
}

// TestObserveFacade pins the public wiring: Observe attaches to every
// instrumented algorithm and reports false for baselines that cannot trace.
func TestObserveFacade(t *testing.T) {
	c := &obs.Recorder{}
	if !ist.Observe(ist.NewRH(1), c) {
		t.Fatal("Observe(RH) = false")
	}
	if !ist.Observe(ist.NewHDPI(1), c) {
		t.Fatal("Observe(HDPI) = false")
	}
	if !ist.Observe(ist.NewTwoDPI(), c) {
		t.Fatal("Observe(TwoDPI) = false")
	}
	if ist.Observe(ist.NewUtilityApprox(0.1), c) {
		t.Fatal("Observe(baseline) = true; baselines are uninstrumented")
	}
}

package server

import (
	"net/http"
	"os"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/faultinject"
	"ist/internal/obs"
	"ist/internal/wal"
)

func TestWALStoreRoundtrip(t *testing.T) {
	testStoreRoundtrip(t, func(t *testing.T) SessionStore {
		s, err := OpenWALStore(t.TempDir(), WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestWALStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Create(SessionRecord{ID: "s1", Algorithm: "rh", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Answer("s1", true); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a crash, then append through a fresh handle.
	b, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := b.Answer("s1", false); err != nil {
		t.Fatal(err)
	}
	recs, _, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Answers) != 2 || !recs[0].Answers[0] || recs[0].Answers[1] {
		t.Fatalf("folded record wrong after reopen: %+v", recs)
	}
}

func TestWALStoreAnswerUnknownSession(t *testing.T) {
	s, err := OpenWALStore(t.TempDir(), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.Answer("nope", true); err == nil {
		t.Fatal("answer for a session never created must fail")
	}
}

// TestWALStoreSnapshotCompaction: frequent snapshots with tiny segments
// keep the directory bounded, and a reopen rebuilds the identical state
// from snapshot + tail.
func TestWALStoreSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWALStore(dir, WALOptions{SnapshotEvery: 4, SegmentBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(SessionRecord{ID: "s1", Algorithm: "rh", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Answer("s1", i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 21 events, snapshot every 4: without compaction the 160-byte segments
	// would pile up past a dozen files.
	if len(entries) > 5 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("compaction left %d files: %v", len(entries), names)
	}

	r, err := OpenWALStore(dir, WALOptions{SnapshotEvery: 4, SegmentBytes: 160})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if r.Recovery().Snapshot == nil {
		t.Error("reopen found no snapshot after 21 events with SnapshotEvery=4")
	}
	recs, lastID, err := r.Load()
	if err != nil {
		t.Fatal(err)
	}
	if lastID != 1 || len(recs) != 1 || len(recs[0].Answers) != 20 {
		t.Fatalf("state after reopen: lastID=%d recs=%+v", lastID, recs)
	}
	for i, ans := range recs[0].Answers {
		if ans != (i%3 == 0) {
			t.Fatalf("answer %d flipped after snapshot round-trip", i)
		}
	}
}

// TestWALAppendsPerDialogue pins the WAL cost of one dialogue: a create,
// one append per answer and one finish when the session certifies. The
// client's DELETE that follows finds nothing live and appends nothing.
func TestWALAppendsPerDialogue(t *testing.T) {
	band, k, hidden := testBand(t)
	reg := obs.NewRegistry()
	st, err := OpenWALStore(t.TempDir(), WALOptions{Fsync: wal.SyncNever, Metrics: wal.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	rec, s0 := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	final, ok := drive(t, srv, s0, hidden)
	if !ok || final.Seq == 0 {
		t.Fatalf("session finished %v after %d answers; want a finished dialogue", ok, final.Seq)
	}
	if rec := doRaw(t, srv, http.MethodDelete, "/sessions/"+final.ID, ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	if got, want := reg.Counter(wal.MetricAppends, "").Value(), int64(final.Seq+2); got != want {
		t.Fatalf("%s = %d after %d answers, want %d (create + answers + one finish)", wal.MetricAppends, got, final.Seq, want)
	}
}

// TestWALStoreCrashInsideCreate crashes the disk on the create's first WAL
// write, every time: the create is refused with 503 + Retry-After and
// counted as a store error, its id is never served, and after the power
// comes back the id is still unknown and the next create mints the id
// after the last durable one.
func TestWALStoreCrashInsideCreate(t *testing.T) {
	band, k, _ := testBand(t)
	fs := faultinject.NewFS(faultinject.FSPlan{})
	walOpts := WALOptions{Fsync: wal.SyncAlways, Clock: clock.NewFake(time.Unix(0, 0)), FS: fs}
	st, err := OpenWALStore("store", walOpts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(band, k, Options{Seed: 3, TTL: time.Minute, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rec, s1 := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"}); rec.Code != http.StatusCreated || s1.ID != "s1" {
		t.Fatalf("first create: %d id=%q", rec.Code, s1.ID)
	}

	fs.SetPlan(faultinject.FSPlan{CrashAtOp: fs.Ops() + 1})
	rec, _ := do(t, srv, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("create on a crashing disk: %d (Retry-After %q), want 503 with Retry-After", rec.Code, rec.Header().Get("Retry-After"))
	}
	if !fs.Crashed() {
		t.Fatal("the create's WAL write did not reach the crash site")
	}
	if got := srv.reg.Counter(obs.MetricStoreErrors, "").Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricStoreErrors, got)
	}
	if rec, _ := do(t, srv, http.MethodGet, "/sessions/s2", nil); rec.Code != http.StatusNotFound {
		t.Errorf("refused create: GET s2 %d, want 404", rec.Code)
	}
	srv.Close()

	fs.CrashAndRestart()
	st2, err := OpenWALStore("store", walOpts)
	if err != nil {
		t.Fatalf("reopen store after crash: %v", err)
	}
	srv2, err := New(band, k, Options{Seed: 3, TTL: time.Minute, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if rec, _ := do(t, srv2, http.MethodGet, "/sessions/s2", nil); rec.Code != http.StatusNotFound {
		t.Errorf("refused create after restart: GET s2 %d, want 404", rec.Code)
	}
	if rec, _ := do(t, srv2, http.MethodGet, "/sessions/s1", nil); rec.Code != http.StatusOK {
		t.Errorf("acknowledged s1 after restart: GET %d, want 200", rec.Code)
	}
	// Nothing of the refused create reached the disk, so s1 is the last
	// durable id and the next create gets s2.
	if rec, next := do(t, srv2, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"}); rec.Code != http.StatusCreated || next.ID != "s2" {
		t.Errorf("next create after restart: %d id=%q, want 201 s2", rec.Code, next.ID)
	}
}

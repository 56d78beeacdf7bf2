package server

import (
	"math/rand"
	"net/http"
	"reflect"
	"testing"
	"time"

	"ist"
)

// TestCrashRestartRecovery kills a server mid-session (simulated by
// abandoning it and its WAL store without any shutdown courtesy), restarts
// on the same store directory, and resumes the same session id to the
// same result. The restarted session must pick up exactly where the user
// left off: same pending question, same question count, no re-asked
// questions beyond the replayed transcript.
func TestCrashRestartRecovery(t *testing.T) {
	band, k, _ := testBand(t)
	rng := rand.New(rand.NewSource(77))
	hidden := ist.RandomUtility(rng, 4)
	dir := t.TempDir()

	storeA, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(band, k, Options{Seed: 7, TTL: time.Hour, Store: storeA})
	if err != nil {
		t.Fatal(err)
	}
	rec, st := do(t, a, http.MethodPost, "/sessions", map[string]string{"algorithm": "rh"})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	id := st.ID
	const answered = 5
	for i := 0; i < answered; i++ {
		if st.Done {
			t.Skip("session finished before the crash point; nothing to recover")
		}
		p := ist.Point(st.Question.Option1)
		q := ist.Point(st.Question.Option2)
		prefer := 2
		if hidden.Dot(p) >= hidden.Dot(q) {
			prefer = 1
		}
		rec, st = do(t, a, http.MethodPost, "/sessions/"+id+"/answer", map[string]int{"prefer": prefer, "seq": st.Seq})
		if rec.Code != http.StatusOK {
			t.Fatalf("answer %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if st.Done {
		t.Skip("session finished before the crash point; nothing to recover")
	}
	pendingBeforeCrash := *st.Question
	// Crash: no a.Close(), no storeA.Close() — the process just stops.

	storeB, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(band, k, Options{Seed: 7, TTL: time.Hour, Store: storeB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Sessions() != 1 {
		t.Fatalf("rehydrated %d sessions, want 1", b.Sessions())
	}
	rec, got := do(t, b, http.MethodGet, "/sessions/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("get after restart: %d %s", rec.Code, rec.Body.String())
	}
	if got.Questions != answered {
		t.Fatalf("restarted session re-asked questions: count %d, want %d", got.Questions, answered)
	}
	if got.Question == nil || !reflect.DeepEqual(*got.Question, pendingBeforeCrash) {
		t.Fatalf("restarted session shows a different pending question:\n  before: %+v\n  after:  %+v",
			pendingBeforeCrash, got.Question)
	}

	// Finish the recovered session and check it lands on the exact result a
	// crash-free run produces: the algorithm is seeded Seed+1 for session 1.
	final, ok := drive(t, b, got, hidden)
	if !ok {
		t.Fatal("recovered session did not finish")
	}
	direct := ist.Solve(ist.NewRH(7+1), band, k, ist.NewUser(hidden))
	if final.ResultID != direct.Index {
		t.Fatalf("recovered result %d != crash-free result %d", final.ResultID, direct.Index)
	}
	if final.Questions != direct.Questions {
		t.Fatalf("recovered run used %d questions, crash-free run %d — questions were re-asked",
			final.Questions, direct.Questions)
	}

	// Session ids stay monotonic across the restart: a new session must not
	// reuse an id a client could still be polling.
	rec, st2 := do(t, b, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated || st2.ID != "s2" {
		t.Fatalf("post-restart create: %d id=%q, want 201 id=s2", rec.Code, st2.ID)
	}
}

// TestRestartSkipsForeignDataset ensures a persisted session is not resumed
// against different data: the replay would silently diverge, so the record
// is dropped instead.
func TestRestartSkipsForeignDataset(t *testing.T) {
	band, k, _ := testBand(t)
	dir := t.TempDir()
	storeA, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(band, k, Options{Seed: 7, TTL: time.Hour, Store: storeA})
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := do(t, a, http.MethodPost, "/sessions", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	// "Crash", then restart on a different dataset.
	rng := rand.New(rand.NewSource(9))
	other := ist.Preprocess(ist.NBALike(rng, 300).Points, k)
	storeB, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(other, k, Options{Seed: 7, TTL: time.Hour, Store: storeB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Sessions() != 0 {
		t.Fatalf("session resumed against a foreign dataset: %d live", b.Sessions())
	}
}

// TestGracefulShutdownKeepsSessionsReplayable: Server.Close (the graceful
// path) must not Finish persisted sessions — the next boot resumes them.
func TestGracefulShutdownKeepsSessionsReplayable(t *testing.T) {
	band, k, _ := testBand(t)
	dir := t.TempDir()
	storeA, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(band, k, Options{Seed: 7, TTL: time.Hour, Store: storeA})
	if err != nil {
		t.Fatal(err)
	}
	_, st := do(t, a, http.MethodPost, "/sessions", nil)
	a.Close() // graceful: drains goroutines, keeps the store's records

	storeB, err := OpenWALStore(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(band, k, Options{Seed: 7, TTL: time.Hour, Store: storeB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec, _ := do(t, b, http.MethodGet, "/sessions/"+st.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("session lost across graceful restart: %d", rec.Code)
	}
}

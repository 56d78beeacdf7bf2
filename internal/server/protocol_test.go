package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ist"
	"ist/client"
)

// This file is the regression suite for the exactly-once answer protocol
// (DESIGN.md §12): before the seq handshake, a retried POST /answer was
// applied twice, silently injecting a second halfspace cut and corrupting
// the session. Every test here drives the real handler over the real wire
// shapes.

// answerBody builds an answer POST quoting seq.
func answerBody(prefer, seq int) map[string]int {
	return map[string]int{"prefer": prefer, "seq": seq}
}

// TestDuplicateAnswerIdempotent is THE pre-fix corruption regression: the
// same answer POST delivered twice (lost response, proxy retransmit,
// impatient client) must advance the session exactly once, and the replay
// must return the byte-identical response the original carried.
func TestDuplicateAnswerIdempotent(t *testing.T) {
	srv, _, _ := newTestServer(t)
	rec, st := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d", rec.Code)
	}
	if st.Seq != 0 {
		t.Fatalf("fresh session seq = %d, want 0", st.Seq)
	}

	first, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if first.Code != http.StatusOK {
		t.Fatalf("answer: %d %s", first.Code, first.Body.String())
	}
	if next.Seq != 1 {
		t.Fatalf("post-answer seq = %d, want 1", next.Seq)
	}

	// The duplicate: identical bytes, as a proxy would retransmit them.
	dup, dupSt := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if dup.Code != http.StatusOK {
		t.Fatalf("duplicate answer: %d %s (want 200 idempotent replay)", dup.Code, dup.Body.String())
	}
	if dup.Body.String() != first.Body.String() {
		t.Fatalf("replayed response differs from the original:\n  first: %s\n  dup:   %s",
			first.Body.String(), dup.Body.String())
	}
	if dupSt.Questions != 1 {
		t.Fatalf("duplicate advanced the session: questions = %d, want 1", dupSt.Questions)
	}
	// And the authoritative state really did not move.
	_, got := do(t, srv, http.MethodGet, "/sessions/"+st.ID, nil)
	if got.Questions != 1 || got.Seq != 1 {
		t.Fatalf("after duplicate: questions=%d seq=%d, want 1/1", got.Questions, got.Seq)
	}
	if srv.answerReplays.Value() != 1 {
		t.Fatalf("ist_answer_replays_total = %d, want 1", srv.answerReplays.Value())
	}
}

// TestStaleAndFutureSeqConflict: any seq that is neither the pending
// question's nor the just-applied one is refused with 409 carrying the
// authoritative state, so a confused client can always resync.
func TestStaleAndFutureSeqConflict(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	for i := 0; i < 2; i++ {
		rec, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, st.Seq))
		if rec.Code != http.StatusOK {
			t.Fatalf("answer %d: %d", i, rec.Code)
		}
		st = next
	}
	// st.Seq == 2 now. Stale (0) and future (7) must both conflict.
	for _, seq := range []int{0, 7} {
		rec, got := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(2, seq))
		if rec.Code != http.StatusConflict {
			t.Fatalf("seq %d: code %d, want 409", seq, rec.Code)
		}
		if got.Seq != 2 || got.Questions != 2 {
			t.Fatalf("seq %d: 409 body carries seq=%d questions=%d, want the authoritative 2/2", seq, got.Seq, got.Questions)
		}
	}
	if got := srv.seqConflicts.Value(); got != 2 {
		t.Fatalf("ist_seq_conflicts_total = %d, want 2", got)
	}
	// The conflicts must not have advanced anything.
	_, cur := do(t, srv, http.MethodGet, "/sessions/"+st.ID, nil)
	if cur.Questions != 2 {
		t.Fatalf("conflicting answers advanced the session to %d questions", cur.Questions)
	}
}

// TestMissingSeqRejected: an answer without a seq cannot be retried safely,
// so the server refuses it outright rather than guessing.
func TestMissingSeqRejected(t *testing.T) {
	srv, _, _ := newTestServer(t)
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	rec, _ := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", map[string]int{"prefer": 1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing seq: code %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "seq") {
		t.Fatalf("missing-seq error does not mention seq: %q", rec.Body.String())
	}
	rec, _ = do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, -3))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative seq: code %d, want 400", rec.Code)
	}
}

// TestFinalAnswerReplay: retrying the answer that finished the session must
// replay the done-state (result, certificate) rather than 409 — that retry
// is exactly the lost-response case the protocol exists for.
func TestFinalAnswerReplay(t *testing.T) {
	srv, _, hidden := newTestServer(t)
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)
	final, ok := drive(t, srv, st, hidden)
	if !ok {
		t.Fatal("session did not finish")
	}
	rec, got := do(t, srv, http.MethodPost, "/sessions/"+final.ID+"/answer", answerBody(1, final.Seq-1))
	if rec.Code != http.StatusOK {
		t.Fatalf("final-answer replay: %d %s", rec.Code, rec.Body.String())
	}
	if !got.Done || !reflect.DeepEqual(got.Result, final.Result) {
		t.Fatalf("replayed final state differs: %+v vs %+v", got, final)
	}
	// But answering a finished session with the "next" seq conflicts.
	rec, _ = do(t, srv, http.MethodPost, "/sessions/"+final.ID+"/answer", answerBody(1, final.Seq))
	if rec.Code != http.StatusConflict {
		t.Fatalf("answer after done: %d, want 409", rec.Code)
	}
}

// flakyStore wraps a SessionStore, failing Create and Answer writes on
// demand.
type flakyStore struct {
	SessionStore
	mu   sync.Mutex
	fail bool
}

var errDiskOnFire = errors.New("disk on fire")

func (f *flakyStore) failing() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fail
}

func (f *flakyStore) Create(rec SessionRecord) error {
	if f.failing() {
		return errDiskOnFire
	}
	return f.SessionStore.Create(rec)
}

func (f *flakyStore) Answer(id string, preferFirst bool) error {
	if f.failing() {
		return errDiskOnFire
	}
	return f.SessionStore.Answer(id, preferFirst)
}

func (f *flakyStore) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

// TestStoreErrorRefusesAnswer: a failed persist must refuse the request
// (503 + Retry-After) WITHOUT applying the answer in memory — the old
// log-and-continue path let memory diverge from the WAL, so a crash after
// it replayed a different session than the user saw.
func TestStoreErrorRefusesAnswer(t *testing.T) {
	band, k, _ := testBand(t)
	fs := &flakyStore{SessionStore: NewMemStore()}
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)

	fs.setFail(true)
	rec, _ := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("answer with failing store: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if srv.storeErrors.Value() != 1 {
		t.Fatalf("ist_store_errors_total = %d, want 1", srv.storeErrors.Value())
	}
	// Not applied: same seq, same question count.
	_, cur := do(t, srv, http.MethodGet, "/sessions/"+st.ID, nil)
	if cur.Seq != 0 || cur.Questions != 0 {
		t.Fatalf("refused answer was applied anyway: seq=%d questions=%d", cur.Seq, cur.Questions)
	}

	// The client retries the SAME seq once the store heals; it applies once.
	fs.setFail(false)
	rec, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusOK || next.Seq != 1 {
		t.Fatalf("retry after heal: code %d seq %d, want 200/1", rec.Code, next.Seq)
	}
	// And the store saw exactly one answer.
	recs, _, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.ID == st.ID && len(r.Answers) != 1 {
			t.Fatalf("store recorded %d answers, want 1", len(r.Answers))
		}
	}
}

// TestStoreErrorRefusesCreate: a create the store cannot record is refused
// (503 + Retry-After) and leaves neither a live session nor a record. The
// old log-and-continue path served a zombie: the store knew no such
// session, so every later answer to it was refused, even after the store
// healed.
func TestStoreErrorRefusesCreate(t *testing.T) {
	band, k, _ := testBand(t)
	fs := &flakyStore{SessionStore: NewMemStore()}
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fs.setFail(true)
	rec, _ := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create with failing store: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if srv.storeErrors.Value() != 1 {
		t.Fatalf("ist_store_errors_total = %d, want 1", srv.storeErrors.Value())
	}
	if srv.Sessions() != 0 {
		t.Fatalf("refused create left %d live sessions", srv.Sessions())
	}
	if rec, _ := do(t, srv, http.MethodGet, "/sessions/s1", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET refused session: %d, want 404", rec.Code)
	}
	if recs, _, err := fs.Load(); err != nil || len(recs) != 0 {
		t.Fatalf("refused create left records %+v (err %v)", recs, err)
	}

	// Once the store heals, the client's retried create is a full session
	// whose answers persist.
	fs.setFail(false)
	rec, st := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after heal: %d %s", rec.Code, rec.Body.String())
	}
	rec, next := do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusOK || next.Seq != 1 {
		t.Fatalf("answer after heal: code %d seq %d, want 200/1", rec.Code, next.Seq)
	}
}

// stallingStore holds Create until released, then fails it.
type stallingStore struct {
	SessionStore
	entered, release chan struct{}
}

func (s *stallingStore) Create(SessionRecord) error {
	close(s.entered)
	<-s.release
	return errDiskOnFire
}

// TestStoreErrorRefusedCreateRacingLookup: a request that found the
// reserved id while its create record was failing waits for the create and
// then sees a failed session (500), never a half-built one.
func TestStoreErrorRefusedCreateRacingLookup(t *testing.T) {
	band, k, _ := testBand(t)
	store := &stallingStore{SessionStore: NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	created := make(chan int, 1)
	go func() {
		rec, _ := do(nil, srv, http.MethodPost, "/sessions", nil)
		created <- rec.Code
	}()
	<-store.entered
	// lookup stamps lastUsed through srv.now once it has found the id.
	found := make(chan struct{})
	var once sync.Once
	srv.mu.Lock()
	now := srv.now
	srv.now = func() time.Time { once.Do(func() { close(found) }); return now() }
	srv.mu.Unlock()
	got := make(chan int, 1)
	go func() {
		rec, _ := do(nil, srv, http.MethodGet, "/sessions/s1", nil)
		got <- rec.Code
	}()
	<-found
	close(store.release)
	if code := <-created; code != http.StatusServiceUnavailable {
		t.Fatalf("create with failing store: %d, want 503", code)
	}
	if code := <-got; code != http.StatusInternalServerError {
		t.Fatalf("GET racing the refused create: %d, want 500", code)
	}
	if rec, _ := do(t, srv, http.MethodGet, "/sessions/s1", nil); rec.Code != http.StatusNotFound || srv.Sessions() != 0 {
		t.Fatalf("refused create still served: GET %d, %d live", rec.Code, srv.Sessions())
	}
}

// TestSeqSurvivesRestart: after a crash + rehydration, a retried answer
// from before the crash is still recognized as a replay — the seq counter
// is derived from the persisted answer log, not process memory.
func TestSeqSurvivesRestart(t *testing.T) {
	band, k, _ := testBand(t)
	store := NewMemStore()
	a, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	_, st := do(t, a, http.MethodPost, "/sessions", nil)
	rec, post := do(t, a, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("answer: %d", rec.Code)
	}
	a.Close()

	b, err := New(band, k, Options{Seed: 1, TTL: time.Minute, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// The restarted server must agree: seq 1 pending, and the pre-crash
	// answer (seq 0) replays idempotently with the identical question.
	rec, got := do(t, b, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("replay after restart: %d %s", rec.Code, rec.Body.String())
	}
	if got.Seq != 1 || got.Questions != 1 {
		t.Fatalf("replay after restart: seq=%d questions=%d, want 1/1", got.Seq, got.Questions)
	}
	if !reflect.DeepEqual(got.Question, post.Question) {
		t.Fatalf("replayed question differs after restart:\n  %+v\n  %+v", got.Question, post.Question)
	}
}

// TestReadyzAndDrain: /readyz is 200 while serving, 503 once draining; a
// draining server refuses new sessions but keeps answering in-flight ones.
func TestReadyzAndDrain(t *testing.T) {
	srv, _, _ := newTestServer(t)
	rec, _ := do(t, srv, http.MethodGet, "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz while serving: %d", rec.Code)
	}
	_, st := do(t, srv, http.MethodPost, "/sessions", nil)

	if !srv.BeginDrain() {
		t.Fatal("BeginDrain reported already draining")
	}
	if srv.BeginDrain() {
		t.Fatal("second BeginDrain reported a fresh drain")
	}
	rec, _ = do(t, srv, http.MethodGet, "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || ready.Status != "draining" {
		t.Fatalf("readyz body = %s (err %v), want draining", rec.Body.String(), err)
	}
	rec, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining create refusal without Retry-After")
	}
	// The in-flight dialogue still progresses.
	rec, _ = do(t, srv, http.MethodPost, "/sessions/"+st.ID+"/answer", answerBody(1, 0))
	if rec.Code != http.StatusOK {
		t.Fatalf("answer while draining: %d, want 200", rec.Code)
	}
	// Liveness is unaffected: the process must not be killed for draining.
	rec, _ = do(t, srv, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", rec.Code)
	}
}

// blockingAlg parks Run until released, holding its admission slot — the
// deterministic stand-in for a slow request.
type blockingAlg struct {
	ist.Algorithm
	started chan struct{}
	release chan struct{}
}

func (a *blockingAlg) Run(points []ist.Point, k int, o ist.Oracle) int {
	close(a.started)
	<-a.release
	return a.Algorithm.Run(points, k, o)
}

// TestAdmissionGateSheds: with MaxInflight=1 and no queue, a second create
// is shed with 503 + Retry-After while the first holds the slot, and the
// shed is counted. Once the slot frees, admission resumes.
func TestAdmissionGateSheds(t *testing.T) {
	band, k, _ := testBand(t)
	started := make(chan struct{})
	release := make(chan struct{})
	wrapped := false
	srv, err := New(band, k, Options{
		Seed: 1, TTL: time.Minute, MaxInflight: 1,
		WrapAlgorithm: func(id string, alg ist.Algorithm) ist.Algorithm {
			if wrapped {
				return alg
			}
			wrapped = true
			return &blockingAlg{Algorithm: alg, started: started, release: release}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan int, 1)
	go func() {
		rec, _ := do(nil, srv, http.MethodPost, "/sessions", nil)
		done <- rec.Code
	}()
	<-started // the first create now holds the only admission slot

	rec, _ := do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-limit create: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response without Retry-After")
	}
	if got := srv.shed.With("create").Value(); got != 1 {
		t.Fatalf(`ist_shed_total{path="create"} = %d, want 1`, got)
	}

	close(release)
	if code := <-done; code != http.StatusCreated {
		t.Fatalf("blocked create finished with %d, want 201", code)
	}
	rec, _ = do(t, srv, http.MethodPost, "/sessions", nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after slot freed: %d, want 201", rec.Code)
	}
}

// TestAdmissionQueueAdmits: a queued request is admitted (not shed) when
// the slot frees within the admission timeout.
func TestAdmissionQueueAdmits(t *testing.T) {
	band, k, _ := testBand(t)
	started := make(chan struct{})
	release := make(chan struct{})
	wrapped := false
	srv, err := New(band, k, Options{
		Seed: 1, TTL: time.Minute, MaxInflight: 1, AdmissionTimeout: 5 * time.Second,
		WrapAlgorithm: func(id string, alg ist.Algorithm) ist.Algorithm {
			if wrapped {
				return alg
			}
			wrapped = true
			return &blockingAlg{Algorithm: alg, started: started, release: release}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first := make(chan int, 1)
	go func() {
		rec, _ := do(nil, srv, http.MethodPost, "/sessions", nil)
		first <- rec.Code
	}()
	<-started
	second := make(chan int, 1)
	go func() {
		rec, _ := do(nil, srv, http.MethodPost, "/sessions", nil)
		second <- rec.Code
	}()
	// Give the second request a moment to join the queue, then free the
	// slot; it must be admitted rather than shed.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if code := <-first; code != http.StatusCreated {
		t.Fatalf("first create: %d", code)
	}
	if code := <-second; code != http.StatusCreated {
		t.Fatalf("queued create: %d, want 201 (admitted when slot freed)", code)
	}
	if got := srv.shed.With("create").Value(); got != 0 {
		t.Fatalf("queued request was shed: ist_shed_total = %d", got)
	}
}

// TestClientStateMirrorsWire pins the client package's State struct to the
// server's wire shape: a fully-populated StateResponse must round-trip
// through client.State without losing a field.
func TestClientStateMirrorsWire(t *testing.T) {
	cert := &ist.Certificate{Certified: true, Reason: "stop", Questions: 4, Candidates: 2}
	resp := StateResponse{
		ID: "s9", Seq: 4, Questions: 4, Done: true,
		Result: []float64{0.1, 0.2}, ResultID: 7, Certificate: cert,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var got client.State
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != resp.ID || got.Seq != resp.Seq || got.Questions != resp.Questions ||
		got.Done != resp.Done || got.ResultID != resp.ResultID ||
		!reflect.DeepEqual(got.Result, resp.Result) ||
		!reflect.DeepEqual(got.Certificate, resp.Certificate) {
		t.Fatalf("client.State lost wire fields: %+v vs %+v", got, resp)
	}
	// And the question-carrying shape.
	resp = StateResponse{ID: "s1", Seq: 2, Questions: 2,
		Question: &Question{Option1: []float64{1}, Option2: []float64{2}}}
	b, _ = json.Marshal(resp)
	got = client.State{}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Question == nil || !reflect.DeepEqual(got.Question.Option1, resp.Question.Option1) ||
		!reflect.DeepEqual(got.Question.Option2, resp.Question.Option2) {
		t.Fatalf("client.State lost the question: %+v", got)
	}
}

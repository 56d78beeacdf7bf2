package server

import (
	"fmt"
	"sort"
	"sync"

	"ist/internal/obs"
)

// SessionRecord is everything needed to deterministically rebuild an
// in-flight session: the identity of its algorithm (name + seed), the
// fingerprint of the dataset it was recorded against (replaying on other
// data would silently diverge), and the ordered answer log. Questions are
// not stored — the seeded algorithm re-derives them during replay.
type SessionRecord struct {
	ID          string `json:"id"`
	Algorithm   string `json:"algorithm"`
	Seed        int64  `json:"seed"`
	Fingerprint uint64 `json:"fingerprint"`
	Answers     []bool `json:"answers,omitempty"`
}

// SessionStore persists session state incrementally so a restarted server
// can rehydrate in-flight sessions by transcript replay. Implementations
// must be safe for concurrent use.
type SessionStore interface {
	// Create persists a new session's identity (with an empty answer log).
	Create(rec SessionRecord) error
	// Answer appends one answer to the session's log.
	Answer(id string, preferFirst bool) error
	// Finish forgets a session — completed, deleted, expired, or failed —
	// so it will not be rehydrated on restart. Finishing an id with no live
	// record (already finished, or never created) records nothing.
	Finish(id string) error
	// Load returns the record of every unfinished session plus the highest
	// numeric session id ever created (so a restarted server never reuses
	// an id a client may still be polling).
	Load() ([]SessionRecord, int64, error)
	// Close releases any backing resources. Close does NOT finish live
	// sessions: a graceful shutdown keeps them replayable.
	Close() error
}

// SpanSessionStore is the optional tracing capability of a SessionStore:
// AnswerSpan behaves exactly like Answer but records the persistence (and
// any fsync it triggers) as children of parent. The server type-asserts for
// it; stores without it are simply persisted untraced. WALStore implements
// it.
type SpanSessionStore interface {
	SessionStore
	AnswerSpan(id string, preferFirst bool, parent *obs.Span) error
}

// sessionIDNum extracts the numeric part of an "s<n>" session id (0 if the
// id has some other shape).
func sessionIDNum(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "s%d", &n); err != nil {
		return 0
	}
	return n
}

// MemStore is an in-memory SessionStore: no crash durability, but it gives
// tests the same code path and folding rule as the durable WALStore.
type MemStore struct {
	mu   sync.Mutex
	fold eventFold
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{fold: newEventFold()} }

// Create implements SessionStore.
func (m *MemStore) Create(rec SessionRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := rec
	m.fold.apply(storeEvent{Op: "create", ID: rec.ID, Rec: &cp})
	return nil
}

// Answer implements SessionStore.
func (m *MemStore) Answer(id string, preferFirst bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.fold.recs[id]; !ok {
		return fmt.Errorf("server: store: answer for unknown session %q", id)
	}
	m.fold.apply(storeEvent{Op: "answer", ID: id, Answer: &preferFirst})
	return nil
}

// Finish implements SessionStore.
func (m *MemStore) Finish(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.fold.recs[id]; ok {
		m.fold.apply(storeEvent{Op: "finish", ID: id})
	}
	return nil
}

// Load implements SessionStore.
func (m *MemStore) Load() ([]SessionRecord, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fold.records(), m.fold.lastID, nil
}

// Close implements SessionStore.
func (m *MemStore) Close() error { return nil }

// storeEvent is one event of the append-only session log (one WAL record):
// folded back into per-session records on recovery.
// Appending one small event per answer (instead of rewriting a snapshot)
// keeps the write path O(1) and bounds what a torn write can damage.
type storeEvent struct {
	Op     string         `json:"op"` // "create" | "answer" | "finish"
	ID     string         `json:"id"`
	Rec    *SessionRecord `json:"rec,omitempty"`
	Answer *bool          `json:"answer,omitempty"`
}

// eventFold replays store events into the latest per-session state. It is
// the one folding rule both stores share, so MemStore, the WAL's recovery
// and its snapshots cannot drift apart.
type eventFold struct {
	recs   map[string]*SessionRecord
	lastID int64
}

func newEventFold() eventFold {
	return eventFold{recs: map[string]*SessionRecord{}}
}

// apply folds one event. Unknown ops and answers for unknown sessions are
// ignored: a recovered log may have gaps, and folding must never abort.
func (f *eventFold) apply(ev storeEvent) {
	switch ev.Op {
	case "create":
		if ev.Rec == nil {
			return
		}
		cp := *ev.Rec
		cp.Answers = append([]bool(nil), ev.Rec.Answers...)
		f.recs[ev.ID] = &cp
		if n := sessionIDNum(ev.ID); n > f.lastID {
			f.lastID = n
		}
	case "answer":
		if rec, ok := f.recs[ev.ID]; ok && ev.Answer != nil {
			rec.Answers = append(rec.Answers, *ev.Answer)
		}
	case "finish":
		delete(f.recs, ev.ID)
	}
}

// records returns the unfinished sessions, deep-copied, in creation order:
// ids are minted in increasing numeric order, so that is numeric id order.
func (f *eventFold) records() []SessionRecord {
	type numbered struct {
		n   int64
		id  string
		rec *SessionRecord
	}
	live := make([]numbered, 0, len(f.recs))
	for id, rec := range f.recs {
		live = append(live, numbered{sessionIDNum(id), id, rec})
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].n != live[j].n {
			return live[i].n < live[j].n
		}
		return live[i].id < live[j].id
	})
	out := make([]SessionRecord, len(live))
	for i, l := range live {
		out[i] = *l.rec
		out[i].Answers = append([]bool(nil), l.rec.Answers...)
	}
	return out
}

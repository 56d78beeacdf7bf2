package server

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"ist/internal/clock"
	"ist/internal/obs"
	"ist/internal/wal"
)

// WALOptions configure a WALStore. The zero value is production-safe:
// fsync on every append, 1 MiB segments, a snapshot every 256 events.
type WALOptions struct {
	// Fsync is the append durability policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// FsyncEvery is the batching interval for wal.SyncInterval.
	FsyncEvery time.Duration
	// SnapshotEvery folds the event log into a snapshot (and compacts old
	// segments) every this many appended events (default 256; negative
	// disables snapshotting).
	SnapshotEvery int
	// SegmentBytes is the segment rotation threshold.
	SegmentBytes int64
	// Clock drives fsync batching and latency metrics (default real).
	Clock clock.Clock
	// FS substitutes the filesystem — the crash-point harness injects a
	// crash-simulating one (default the real filesystem).
	FS wal.FS
	// Metrics, when set, surfaces the log's durability metrics.
	Metrics *wal.Metrics
}

// walSnapshot is the folded state a snapshot persists.
type walSnapshot struct {
	Recs   []SessionRecord `json:"recs"`
	LastID int64           `json:"lastId"`
}

// WALStore is the crash-safe SessionStore: events go to a checksummed,
// segment-rotated write-ahead log (internal/wal) and are periodically
// folded into an atomic snapshot. It also keeps the folded state in
// memory, so Load is O(live sessions) and snapshots never re-read the log.
type WALStore struct {
	mu            sync.Mutex
	log           *wal.Log
	fold          eventFold
	appends       int // since the last snapshot
	snapshotEvery int
	recovery      wal.Recovery
}

// OpenWALStore opens (creating if needed) the WAL session store in dir,
// recovering whatever a previous process — cleanly shut down or not —
// left behind. Recovery never aborts on damage: torn tails are truncated,
// corrupt records skipped and counted, damaged segments quarantined; the
// damage report is logged and kept on the store for inspection.
func OpenWALStore(dir string, o WALOptions) (*WALStore, error) {
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	l, rec, err := wal.Open(dir, wal.Options{
		Sync:         o.Fsync,
		SyncEvery:    o.FsyncEvery,
		SegmentBytes: o.SegmentBytes,
		Clock:        o.Clock,
		FS:           o.FS,
		Metrics:      o.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("server: walstore: %w", err)
	}
	s := &WALStore{log: l, fold: newEventFold(), snapshotEvery: o.SnapshotEvery, recovery: *rec}
	if rec.Snapshot != nil {
		var snap walSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			_ = l.Close()
			return nil, fmt.Errorf("server: walstore: undecodable snapshot (checksum valid — incompatible format?): %w", err)
		}
		for i := range snap.Recs {
			cp := snap.Recs[i]
			s.fold.apply(storeEvent{Op: "create", ID: cp.ID, Rec: &cp})
		}
		if snap.LastID > s.fold.lastID {
			s.fold.lastID = snap.LastID
		}
	}
	undecodable := 0
	for _, payload := range rec.Records {
		var ev storeEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			undecodable++ // checksum-valid but unparseable: count, keep going
			continue
		}
		s.fold.apply(ev)
	}
	s.recovery.CorruptRecords += undecodable
	if s.recovery.Damaged() || undecodable > 0 {
		log.Printf("server: walstore: recovered %s with damage: %d corrupt record(s) skipped, %d segment(s) quarantined, %d snapshot(s) discarded",
			dir, s.recovery.CorruptRecords, s.recovery.QuarantinedSegments, s.recovery.DiscardedSnapshots)
	}
	return s, nil
}

// append persists one event and folds it into the in-memory state —
// memory is updated only after the log acknowledges, so a snapshot can
// never get ahead of the committed event sequence.
func (s *WALStore) append(ev storeEvent) error {
	return s.appendSpan(ev, nil)
}

// appendSpan is append under an optional parent span: the log write (and
// any fsync it causes) shows up as wal-append/wal-fsync children.
func (s *WALStore) appendSpan(ev storeEvent, parent *obs.Span) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("server: walstore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.AppendSpan(payload, parent); err != nil {
		return fmt.Errorf("server: walstore: %w", err)
	}
	s.fold.apply(ev)
	s.appends++
	if s.snapshotEvery > 0 && s.appends >= s.snapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// The event itself is durable; a failed snapshot only delays
			// compaction, so the store stays up and retries next time.
			log.Printf("server: walstore: snapshot: %v", err)
		}
	}
	return nil
}

// snapshotLocked writes the folded state as a durable snapshot (and lets
// the log compact). Callers hold s.mu.
func (s *WALStore) snapshotLocked() error {
	payload, err := json.Marshal(walSnapshot{Recs: s.fold.records(), LastID: s.fold.lastID})
	if err != nil {
		return err
	}
	if err := s.log.Snapshot(payload); err != nil {
		return err
	}
	s.appends = 0
	return nil
}

// Recovery returns the damage report from Open.
func (s *WALStore) Recovery() wal.Recovery { return s.recovery }

// Create implements SessionStore.
func (s *WALStore) Create(rec SessionRecord) error {
	cp := rec
	return s.append(storeEvent{Op: "create", ID: rec.ID, Rec: &cp})
}

// Answer implements SessionStore.
func (s *WALStore) Answer(id string, preferFirst bool) error {
	return s.AnswerSpan(id, preferFirst, nil)
}

// AnswerSpan implements SpanStore: Answer with the persistence traced
// under parent.
func (s *WALStore) AnswerSpan(id string, preferFirst bool, parent *obs.Span) error {
	s.mu.Lock()
	_, ok := s.fold.recs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: walstore: answer for unknown session %q", id)
	}
	return s.appendSpan(storeEvent{Op: "answer", ID: id, Answer: &preferFirst}, parent)
}

// WALSeq reports the sequence number of the WAL segment currently being
// appended to, for /healthz.
func (s *WALStore) WALSeq() uint64 {
	return s.log.SegmentSeq()
}

// Finish implements SessionStore.
func (s *WALStore) Finish(id string) error {
	return s.append(storeEvent{Op: "finish", ID: id})
}

// Load implements SessionStore.
func (s *WALStore) Load() ([]SessionRecord, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fold.records(), s.fold.lastID, nil
}

// Close implements SessionStore, flushing pending appends first.
func (s *WALStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

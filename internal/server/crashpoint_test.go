package server

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/faultinject"
	"ist/internal/wal"
)

// This file holds the exhaustive crash-point matrix for the WAL session
// store: a scripted workload (creates, answers, finishes — enough to force
// segment rotation, auto-snapshots and compaction) is crashed at EVERY
// filesystem write site, for every fsync policy, then reopened. At each
// site the recovered state must equal the fold of a consistent prefix of
// the submitted events, and under fsync=always the prefix must cover every
// acknowledged event. Set CRASH_REPORT to a path to get the full matrix as
// a JSON artifact (CI uploads it from the crash-smoke job).

type scriptOp struct {
	op  string // "create" | "answer" | "finish"
	id  string
	ans bool
}

// crashScript is the deterministic workload. Every op changes the folded
// state, so each prefix folds to a distinct state and the matched prefix
// length is unambiguous.
var crashScript = []scriptOp{
	{op: "create", id: "s1"},
	{op: "answer", id: "s1", ans: true},
	{op: "answer", id: "s1", ans: false},
	{op: "create", id: "s2"},
	{op: "answer", id: "s2", ans: true},
	{op: "answer", id: "s1", ans: true},
	{op: "finish", id: "s2"},
	{op: "create", id: "s3"},
	{op: "answer", id: "s3", ans: false},
	{op: "answer", id: "s3", ans: true},
	{op: "finish", id: "s1"},
	{op: "answer", id: "s3", ans: true},
	{op: "create", id: "s4"},
	{op: "answer", id: "s4", ans: false},
	{op: "answer", id: "s3", ans: false},
	{op: "finish", id: "s3"},
}

// scriptRecord is the session identity the script creates.
func scriptRecord(id string) SessionRecord {
	return SessionRecord{ID: id, Algorithm: "rh", Seed: 7, Fingerprint: 0xbeef}
}

// applyToStore submits one script op to the store under test.
func applyToStore(st SessionStore, op scriptOp) error {
	switch op.op {
	case "create":
		return st.Create(scriptRecord(op.id))
	case "answer":
		return st.Answer(op.id, op.ans)
	default:
		return st.Finish(op.id)
	}
}

// applyToFold folds one script op with the reference folding rule.
func applyToFold(f *eventFold, op scriptOp) {
	switch op.op {
	case "create":
		rec := scriptRecord(op.id)
		f.apply(storeEvent{Op: "create", ID: op.id, Rec: &rec})
	case "answer":
		ans := op.ans
		f.apply(storeEvent{Op: "answer", ID: op.id, Answer: &ans})
	default:
		f.apply(storeEvent{Op: "finish", ID: op.id})
	}
}

// matchPrefix returns the length of the script prefix whose fold equals the
// recovered state, or -1 if no prefix matches.
func matchPrefix(recs []SessionRecord, lastID int64) int {
	fold := newEventFold()
	match := -1
	if reflect.DeepEqual(fold.records(), recs) && fold.lastID == lastID {
		match = 0
	}
	for j, op := range crashScript {
		applyToFold(&fold, op)
		if reflect.DeepEqual(fold.records(), recs) && fold.lastID == lastID {
			match = j + 1
		}
	}
	return match
}

// walStoreSweep builds the sweep for one fsync policy. Tiny segments and a
// small snapshot interval force rotation, snapshotting and compaction to
// all happen inside the swept workload. The frozen fake clock makes the
// interval policy deterministic (it never syncs on its own — the maximal
// data-at-risk configuration).
func walStoreSweep(policy wal.SyncPolicy) faultinject.CrashPointSweep {
	opts := func(fs *faultinject.FS) WALOptions {
		return WALOptions{
			Fsync:         policy,
			FsyncEvery:    time.Second,
			SnapshotEvery: 4,
			SegmentBytes:  160,
			Clock:         clock.NewFake(time.Unix(0, 0)),
			FS:            fs,
		}
	}
	return faultinject.CrashPointSweep{
		Name: policy.String(),
		Workload: func(fs *faultinject.FS) (acked int) {
			st, err := OpenWALStore("store", opts(fs))
			if err != nil {
				return 0
			}
			// A finish of an id no acknowledged create left live records
			// nothing (SessionStore.Finish), so its ack is no event.
			ackedFold := newEventFold()
			for _, op := range crashScript {
				_, live := ackedFold.recs[op.id]
				if applyToStore(st, op) == nil && (op.op != "finish" || live) {
					applyToFold(&ackedFold, op)
					acked++
				}
			}
			_ = st.Close()
			return acked
		},
		Check: func(fs *faultinject.FS, acked int) error {
			st, err := OpenWALStore("store", opts(fs))
			if err != nil {
				return fmt.Errorf("reopen after crash: %w", err)
			}
			defer func() { _ = st.Close() }()
			recs, lastID, err := st.Load()
			if err != nil {
				return fmt.Errorf("load after crash: %w", err)
			}
			j := matchPrefix(recs, lastID)
			if j < 0 {
				return fmt.Errorf("recovered state is not a prefix fold: lastID=%d recs=%+v", lastID, recs)
			}
			if policy == wal.SyncAlways && j < acked {
				return fmt.Errorf("fsync=always lost acknowledged events: prefix %d < acked %d", j, acked)
			}
			return nil
		},
	}
}

func TestCrashPointMatrix(t *testing.T) {
	var report struct {
		Matrices []faultinject.CrashMatrix `json:"matrices"`
	}
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		m := walStoreSweep(policy).Run()
		report.Matrices = append(report.Matrices, m)
		if m.TotalOps < len(crashScript) {
			t.Errorf("%s: workload performed only %d fs ops for %d events — the sweep is not exercising the store",
				policy, m.TotalOps, len(crashScript))
		}
		t.Logf("%s: %d crash sites swept, %d failures", policy, m.TotalOps, m.Failures)
		if m.Failures > 0 {
			shown := 0
			for _, site := range m.Sites {
				if site.Err != "" && shown < 5 {
					t.Errorf("%s: crash at op %d (acked %d): %s", policy, site.Op, site.Acked, site.Err)
					shown++
				}
			}
			if m.Failures > shown {
				t.Errorf("%s: ...and %d more failing sites", policy, m.Failures-shown)
			}
		}
	}
	if path := os.Getenv("CRASH_REPORT"); path != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("write crash report: %v", err)
		}
		t.Logf("crash report written to %s", path)
	}
}

package server

import (
	"fmt"
	"reflect"
	"testing"

	"ist/internal/wal"
)

func testStoreRoundtrip(t *testing.T, mk func(t *testing.T) SessionStore) {
	t.Helper()
	s := mk(t)
	defer s.Close()
	if err := s.Create(SessionRecord{ID: "s1", Algorithm: "rh", Seed: 8, Fingerprint: 0xabc}); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(SessionRecord{ID: "s2", Algorithm: "hdpi", Seed: 9, Fingerprint: 0xabc}); err != nil {
		t.Fatal(err)
	}
	for _, ans := range []bool{true, false, true} {
		if err := s.Answer("s1", ans); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finish("s2"); err != nil {
		t.Fatal(err)
	}
	recs, lastID, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if lastID != 2 {
		t.Fatalf("lastID = %d, want 2 (finished sessions still pin the id space)", lastID)
	}
	if len(recs) != 1 {
		t.Fatalf("loaded %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != "s1" || rec.Algorithm != "rh" || rec.Seed != 8 || rec.Fingerprint != 0xabc {
		t.Fatalf("bad record: %+v", rec)
	}
	want := []bool{true, false, true}
	if len(rec.Answers) != len(want) {
		t.Fatalf("answers %v, want %v", rec.Answers, want)
	}
	for i := range want {
		if rec.Answers[i] != want[i] {
			t.Fatalf("answers %v, want %v", rec.Answers, want)
		}
	}
}

func TestMemStoreRoundtrip(t *testing.T) {
	testStoreRoundtrip(t, func(t *testing.T) SessionStore { return NewMemStore() })
}

// TestStoreForgetsFinishedSessionsInIDOrder: after many sessions have been
// created and finished, the store loads only the live ones, in creation
// order — numeric, so s9 precedes s10 — through a snapshot and a reopen
// too, and finishing an id twice (or one never created) is harmless.
func TestStoreForgetsFinishedSessionsInIDOrder(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		open func(t *testing.T) SessionStore
	}{
		{"mem", func(*testing.T) SessionStore { return NewMemStore() }},
		{"wal", func(t *testing.T) SessionStore {
			s, err := OpenWALStore(dir, WALOptions{Fsync: wal.SyncNever, SnapshotEvery: 7})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.open(t)
			live := map[int]bool{9: true, 10: true, 12: true, 100: true}
			for i := 1; i <= 100; i++ {
				id := fmt.Sprintf("s%d", i)
				if err := s.Create(SessionRecord{ID: id, Algorithm: "rh", Seed: int64(i)}); err != nil {
					t.Fatal(err)
				}
				if !live[i] {
					if err := s.Finish(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, id := range []string{"s1", "s1", "s101"} {
				if err := s.Finish(id); err != nil {
					t.Fatalf("Finish(%s) of a non-live id: %v", id, err)
				}
			}
			want := []string{"s9", "s10", "s12", "s100"}
			check := func(s SessionStore) {
				t.Helper()
				recs, lastID, err := s.Load()
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, r := range recs {
					got = append(got, r.ID)
				}
				if !reflect.DeepEqual(got, want) || lastID != 100 {
					t.Fatalf("Load = %v (lastID %d), want %v (lastID 100)", got, lastID, want)
				}
			}
			check(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if c.name == "wal" {
				s = c.open(t)
				defer func() { _ = s.Close() }()
				check(s)
			}
		})
	}
}

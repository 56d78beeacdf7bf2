package server

import "testing"

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

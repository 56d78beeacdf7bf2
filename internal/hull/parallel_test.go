package hull

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/skyband"
)

// freezeLPClock pins traced-solve timing to a constant so event streams from
// serial and parallel runs can be compared with DeepEqual.
func freezeLPClock(t *testing.T) {
	t.Helper()
	lp.SetClock(clock.NewFake(time.Unix(0, 0)))
	t.Cleanup(func() { lp.SetClock(nil) })
}

func antiCorrelatedBand(t testing.TB, n, d, k int) []geom.Vector {
	t.Helper()
	ds := dataset.AntiCorrelated(rand.New(rand.NewSource(42)), n, d)
	band := skyband.KSkyband(ds.Points, k)
	pts := make([]geom.Vector, len(band))
	for i, idx := range band {
		pts[i] = ds.Points[idx]
	}
	return pts
}

// TestParallelMatchesSerial is the core determinism contract: for every
// worker count the parallel engine must return the same convex points AND
// emit a bit-identical event stream to the serial engine.
func TestParallelMatchesSerial(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 300, 5, 3)

	var serialRec obs.Recorder
	wantV, wantErr := convexPointsSerial(pts, nil, &serialRec)
	if wantErr != nil {
		t.Fatalf("serial: %v", wantErr)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var rec obs.Recorder
		gotV, err := ConvexPointsExact(pts, nil, &rec, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotV, wantV) {
			t.Fatalf("workers=%d: convex points diverge\ngot  %v\nwant %v", workers, gotV, wantV)
		}
		if !reflect.DeepEqual(rec.Events(), serialRec.Events()) {
			t.Fatalf("workers=%d: event stream diverges (%d events vs %d)",
				workers, rec.Len(), serialRec.Len())
		}
	}
}

// TestParallelMatchesSerialNilObserver checks the nil-observer fast path —
// the engines must still agree when nobody is recording.
func TestParallelMatchesSerialNilObserver(t *testing.T) {
	pts := antiCorrelatedBand(t, 200, 4, 2)
	want, err := convexPointsSerial(pts, nil, nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 4} {
		got, err := ConvexPointsExact(pts, nil, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

// TestParallelStopImmediately: a stop() that is already true must yield the
// seed confirms only, exactly as the serial engine does.
func TestParallelStopImmediately(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 120, 4, 2)
	stop := func() bool { return true }

	var serialRec obs.Recorder
	want, err := convexPointsSerial(pts, stop, &serialRec)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	var rec obs.Recorder
	got, err := ConvexPointsExact(pts, stop, &rec, 4)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !reflect.DeepEqual(rec.Events(), serialRec.Events()) {
		t.Fatalf("event streams diverge under immediate stop")
	}
}

// TestParallelStopMidway: stop() predicates see the identical call sequence
// in both engines (one call per unconfirmed candidate, in candidate order),
// so a count-based budget must cut both scans at the same place.
func TestParallelStopMidway(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 250, 5, 3)
	for _, budget := range []int{1, 7, 40} {
		mkStop := func() func() bool {
			calls := 0
			return func() bool {
				calls++
				return calls > budget
			}
		}
		var serialRec obs.Recorder
		want, err := convexPointsSerial(pts, mkStop(), &serialRec)
		if err != nil {
			t.Fatalf("budget=%d serial: %v", budget, err)
		}
		var rec obs.Recorder
		got, err := ConvexPointsExact(pts, mkStop(), &rec, 4)
		if err != nil {
			t.Fatalf("budget=%d parallel: %v", budget, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget=%d: got %v, want %v", budget, got, want)
		}
		if !reflect.DeepEqual(rec.Events(), serialRec.Events()) {
			t.Fatalf("budget=%d: event streams diverge", budget)
		}
	}
}

// TestParallelWorkersOneIsSerialEngine pins that workers<=1 routes through
// the serial scan (no batching, no snapshots).
func TestParallelWorkersOneIsSerialEngine(t *testing.T) {
	freezeLPClock(t)
	pts := antiCorrelatedBand(t, 100, 4, 2)
	var a, b obs.Recorder
	v1, err1 := ConvexPointsExact(pts, nil, &a, 1)
	v2, err2 := convexPointsSerial(pts, nil, &b)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("workers=1 does not match the serial engine")
	}
}

func TestParallelEmpty(t *testing.T) {
	got, err := ConvexPointsExact(nil, nil, nil, 4)
	if err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
}

// BenchmarkConvexPointsExact is the serial baseline on the acceptance
// workload: the k-skyband of an anti-correlated 6-d dataset.
func BenchmarkConvexPointsExact(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvexPointsExact(pts, nil, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvexPointsExactCarSlice is the scan on an embed-slices-shaped
// band: the k = 10 skyband of a uniform 1,000-tuple slice of the Car-like
// catalog generated from seed 1.
func BenchmarkConvexPointsExactCarSlice(b *testing.B) {
	ds, err := dataset.ByName("car", rand.New(rand.NewSource(1)), 68010, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	slice := make([]geom.Vector, 0, 1000)
	for _, i := range rng.Perm(len(ds.Points))[:1000] {
		slice = append(slice, ds.Points[i])
	}
	pts := skyband.Filter(slice, skyband.KSkyband(slice, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConvexPointsExact(pts, nil, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvexPointsExactParallel sweeps the worker-pool degree on the
// same workload; the w4 / serial ratio is the headline speedup in
// BENCH_10.json.
func BenchmarkConvexPointsExactParallel(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[w], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ConvexPointsExact(pts, nil, nil, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxMinMargin measures one certified candidate test: staging the
// (d+1)-row dual LP in the pooled scratch, the solve, and the reject
// certificate check (the candidate is not convex).
func BenchmarkMaxMinMargin(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	against := exactScan(b, pts)
	p := -1
	seen := map[int]bool{}
	for _, q := range against {
		seen[q] = true
	}
	for i := range pts {
		if !seen[i] {
			p = i
			break
		}
	}
	if p < 0 {
		b.Skip("every point convex; no candidate to test")
	}
	s := new(scratch)
	if v, _, why := s.check(pts, p, against, s.solveDual(pts, p, against, nil)); v != rejected {
		b.Fatalf("candidate %d: verdict %v (%s), want rejected", p, v, why)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.check(pts, p, against, s.solveDual(pts, p, against, nil))
	}
}

// BenchmarkArgmax measures the witness verification scan.
func BenchmarkArgmax(b *testing.B) {
	pts := antiCorrelatedBand(b, 400, 6, 3)
	u := geom.NewVector(6)
	for i := range u {
		u[i] = 1 / 6.0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		argmax(pts, u, i%len(pts))
	}
}

package prep

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ist/internal/obs"
)

func computeReturning(v any, size int64, events ...obs.Event) func(obs.Observer) (any, int64, error) {
	return func(o obs.Observer) (any, int64, error) {
		for _, e := range events {
			obs.Emit(o, e)
		}
		return v, size, nil
	}
}

func TestDoComputesOnceAndReplaysTape(t *testing.T) {
	c := New(0)
	key := Key{Fingerprint: 1, Kind: "convex-exact"}
	ev := obs.Event{Kind: obs.KindLPSolve, Note: "probe"}
	var calls atomic.Int64
	run := func() []obs.Event {
		var rec obs.Recorder
		v, err := c.Do(key, &rec, func(o obs.Observer) (any, int64, error) {
			calls.Add(1)
			return computeReturning([]int{1, 2, 3}, 24, ev)(o)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, []int{1, 2, 3}) {
			t.Fatalf("value = %v", v)
		}
		return rec.Events()
	}
	cold := run()
	hit := run()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if !reflect.DeepEqual(cold, hit) {
		t.Fatalf("cold and hit event streams differ:\ncold %v\nhit  %v", cold, hit)
	}
	if len(cold) != 1 || cold[0].Note != "probe" {
		t.Fatalf("tape not replayed on cold path: %v", cold)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDoSingleFlight(t *testing.T) {
	c := New(0)
	key := Key{Fingerprint: 9, Kind: "sweep-2d", Param: 3}
	var calls atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, err := c.Do(key, nil, func(o obs.Observer) (any, int64, error) {
				calls.Add(1)
				return "partitions", 10, nil
			})
			if err != nil || v != "partitions" {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times under concurrency, want 1", calls.Load())
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(0)
	key := Key{Fingerprint: 2, Kind: "convex-exact"}
	boom := errors.New("lp wobble")
	fail := true
	do := func() (any, error) {
		return c.Do(key, nil, func(o obs.Observer) (any, int64, error) {
			if fail {
				return nil, 0, boom
			}
			return 42, 8, nil
		})
	}
	if _, err := do(); !errors.Is(err, boom) {
		t.Fatalf("want error, got %v", err)
	}
	fail = false
	v, err := do()
	if err != nil || v != 42 {
		t.Fatalf("retry after error: got %v, %v", v, err)
	}
}

// TestDoErrorReplaysTape: the events a failed computation emitted reach the
// computing caller and a caller waiting on it exactly as the uncached path
// emits them, and the failure is still not cached.
func TestDoErrorReplaysTape(t *testing.T) {
	boom := errors.New("certificate failed")
	ev := obs.Event{Kind: obs.KindLPSolve, Status: "infeasible"}
	key := Key{Fingerprint: 5, Kind: "convex-exact"}
	fail := func(o obs.Observer) (any, int64, error) {
		obs.Emit(o, ev)
		return nil, 0, boom
	}
	var want obs.Recorder
	if _, err := (*Cache)(nil).Do(key, &want, fail); !errors.Is(err, boom) {
		t.Fatalf("uncached: got %v, want %v", err, boom)
	}

	c := New(0)
	started, release := make(chan struct{}), make(chan struct{})
	var computing, waiting obs.Recorder
	var computeErr, waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, computeErr = c.Do(key, &computing, func(o obs.Observer) (any, int64, error) {
			close(started)
			<-release
			return fail(o)
		})
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, waitErr = c.Do(key, &waiting, func(obs.Observer) (any, int64, error) {
			t.Error("a waiting caller computed instead of sharing the flight")
			return nil, 0, nil
		})
	}()
	// The waiter counts its hit before it blocks on the computation.
	for c.Stats().Hits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if !errors.Is(computeErr, boom) || !errors.Is(waitErr, boom) {
		t.Fatalf("errors: computing %v, waiting %v; want %v", computeErr, waitErr, boom)
	}
	if !reflect.DeepEqual(computing.Events(), want.Events()) {
		t.Fatalf("computing caller got %v, uncached %v", computing.Events(), want.Events())
	}
	if !reflect.DeepEqual(waiting.Events(), want.Events()) {
		t.Fatalf("waiting caller got %v, uncached %v", waiting.Events(), want.Events())
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failure cached: %+v", s)
	}
}

func TestLookupNonBlocking(t *testing.T) {
	c := New(0)
	key := Key{Fingerprint: 3, Kind: "skyband", Param: 2}
	if _, ok := c.Lookup(key, nil); ok {
		t.Fatal("lookup hit on empty cache")
	}
	if _, err := c.Do(key, nil, computeReturning([]int{7}, 8, obs.Event{Kind: obs.KindConvexPointTest})); err != nil {
		t.Fatal(err)
	}
	var rec obs.Recorder
	v, ok := c.Lookup(key, &rec)
	if !ok || !reflect.DeepEqual(v, []int{7}) {
		t.Fatalf("lookup after Do: %v, %v", v, ok)
	}
	if rec.Len() != 1 {
		t.Fatalf("lookup did not replay tape: %d events", rec.Len())
	}
}

// TestLookupInFlightMisses: Lookup must not block on an entry another
// goroutine is still computing.
func TestLookupInFlightMisses(t *testing.T) {
	c := New(0)
	key := Key{Fingerprint: 4, Kind: "convex-exact"}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(key, nil, func(o obs.Observer) (any, int64, error) {
			close(started)
			<-release
			return 1, 1, nil
		})
	}()
	<-started
	if _, ok := c.Lookup(key, nil); ok {
		t.Fatal("lookup returned an in-flight entry")
	}
	close(release)
	<-done
	if _, ok := c.Lookup(key, nil); !ok {
		t.Fatal("lookup missed a completed entry")
	}
}

func TestEvictionByteCap(t *testing.T) {
	c := New(100)
	for i := 0; i < 5; i++ {
		key := Key{Fingerprint: uint64(i), Kind: "convex-exact"}
		if _, err := c.Do(key, nil, computeReturning(i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Bytes > 100 {
		t.Fatalf("bytes %d over cap", s.Bytes)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite cap pressure")
	}
	// The most recent key survives; the oldest is gone.
	if _, ok := c.Lookup(Key{Fingerprint: 4, Kind: "convex-exact"}, nil); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Lookup(Key{Fingerprint: 0, Kind: "convex-exact"}, nil); ok {
		t.Fatal("oldest entry survived the cap")
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache
	var rec obs.Recorder
	v, err := c.Do(Key{}, &rec, computeReturning("x", 1, obs.Event{Kind: obs.KindLPSolve}))
	if err != nil || v != "x" {
		t.Fatalf("nil cache Do: %v, %v", v, err)
	}
	if rec.Len() != 1 {
		t.Fatal("nil cache should stream events straight through")
	}
	if _, ok := c.Lookup(Key{}, nil); ok {
		t.Fatal("nil cache lookup hit")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

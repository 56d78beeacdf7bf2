// Package prep is the shared preprocessing cache (DESIGN.md §14.2). A server
// hosting many sessions over the same dataset repeats the same deterministic
// preprocessing per session: the k-skyband, the 2-d sweep partitions, the
// exact convex-point set. This cache memoizes those results under the
// dataset fingerprint so the work runs once and every later session reuses
// it.
//
// Determinism is preserved by taping: the first computation records the
// observer events it emits into an obs.Recorder, and the tape is stored next
// to the value. BOTH the cold path and every hit replay the tape into the
// session's observer, so a cached session's event stream (and therefore its
// transcript) is bit-identical to a cold one by construction. A failed
// computation's tape is replayed too, into the computing caller and every
// caller that waited on it, before the error is returned.
//
// Only reproducible, rng-free computations may be cached (exact convex
// points, sweep partitions, skybands — never sampling mode), and only
// complete ones: budgeted runs that may stop mid-scan use the non-blocking
// Lookup and never populate an entry, so a partial result cannot poison the
// cache.
package prep

import (
	"container/list"
	"sync"

	"ist/internal/obs"
)

// Key identifies one preprocessing artifact: the dataset fingerprint
// (ist.Fingerprint over points and k), the computation kind, and an optional
// integer parameter (e.g. the k of a skyband).
type Key struct {
	Fingerprint uint64
	Kind        string
	Param       int
}

// Stats is a point-in-time snapshot of cache effectiveness, exported on
// /metrics as ist_preprocess_cache_{hits,misses,bytes}.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
}

type entry struct {
	ready chan struct{} // closed once value/tape/err are set
	value any
	tape  []obs.Event
	bytes int64
	err   error
	elem  *list.Element // LRU position; nil until ready
}

// Cache memoizes preprocessing results with single-flight computation and
// byte-capped LRU eviction. The zero value is not usable; use New.
type Cache struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recently used; values are Key
	maxBytes int64
	bytes    int64

	hits      int64
	misses    int64
	evictions int64
}

// New returns a cache bounded to maxBytes of stored values (approximate,
// self-reported by each computation). maxBytes <= 0 means unbounded.
func New(maxBytes int64) *Cache {
	return &Cache{
		entries:  map[Key]*entry{},
		lru:      list.New(),
		maxBytes: maxBytes,
	}
}

// Do returns the cached value for key, computing it at most once across
// concurrent callers (single-flight). compute receives an observer that
// tapes the events of the computation; the tape is replayed into o on every
// path — first computation and every hit alike, failed or not — so event
// streams do not depend on cache state. compute reports the value's
// approximate resident size for the byte cap. Errors are returned but never
// cached: the next Do retries.
func (c *Cache) Do(key Key, o obs.Observer, compute func(obs.Observer) (any, int64, error)) (any, error) {
	if c == nil {
		// Uncached: run compute straight against the session observer.
		v, _, err := compute(o)
		return v, err
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			obs.ReplayTape(e.tape, o)
			return nil, e.err
		}
		c.mu.Lock()
		c.touch(e)
		c.mu.Unlock()
		obs.ReplayTape(e.tape, o)
		return e.value, nil
	}
	c.misses++
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	rec := &obs.Recorder{}
	v, size, err := compute(rec)
	tape := append([]obs.Event(nil), rec.Events()...)

	c.mu.Lock()
	if err != nil {
		// Never cache failures; let the next caller retry.
		delete(c.entries, key)
		e.err, e.tape = err, tape
		close(e.ready)
		c.mu.Unlock()
		obs.ReplayTape(tape, o)
		return nil, err
	}
	e.value, e.tape, e.bytes = v, tape, size
	e.elem = c.lru.PushFront(key)
	c.bytes += size
	c.evict()
	c.mu.Unlock()
	close(e.ready)

	obs.ReplayTape(tape, o)
	return v, nil
}

// Lookup is the non-blocking read used by budgeted algorithm paths: it
// returns the cached value (replaying its tape into o) only when the entry
// is already complete, and never computes or waits. A budgeted run that
// misses computes locally and must NOT populate the cache — it may stop
// mid-scan, and a partial preprocessing result would poison every later
// session.
func (c *Cache) Lookup(key Key, o obs.Observer) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		select {
		//lint:ignore locksafe the default arm makes this receive non-blocking, so it cannot stall holders of c.mu
		case <-e.ready:
		default:
			ok = false // in flight: treat as a miss rather than block
		}
	}
	if !ok || e.err != nil {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.touch(e)
	c.mu.Unlock()
	obs.ReplayTape(e.tape, o)
	return e.value, true
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
	}
}

// touch moves a ready entry to the LRU front. Called with c.mu held. An
// entry evicted between the hit bookkeeping and the touch has elem pointing
// at a removed element; MoveToFront on it is harmless (the list ignores
// foreign elements), and the caller still returns the value it already has.
func (c *Cache) touch(e *entry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
}

// evict drops least-recently-used ready entries until the byte cap holds.
// Called with c.mu held.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		key := back.Value.(Key)
		e := c.entries[key]
		c.lru.Remove(back)
		delete(c.entries, key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

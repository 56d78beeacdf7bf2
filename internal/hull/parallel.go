package hull

import (
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/parallel"
)

// convexPointsSpeculative is the serial scan fanned out over a bounded
// worker pool as speculative batches (DESIGN.md §14):
//
//   - The dispatcher snapshots the confirmed list and hands a batch of
//     candidates to the pool. Each worker runs testCandidate for its
//     candidate against the snapshot, recording the lp-solve events it would
//     have emitted into a private obs.Recorder.
//   - Results are committed strictly in candidate order. A commit replays the
//     worker's event tape, applies its confirms, and emits the candidate's
//     convex-point-test event — so the merged event stream, the confirmed
//     set, and every stop() call site are bit-identical to a serial run.
//   - A commit that grows the confirmed set invalidates the later slots of
//     the batch (their LPs were solved against a stale constraint set); the
//     dispatcher discards them and re-speculates from the first stale
//     candidate. Most candidates confirm nothing, so most batches commit
//     whole — that is where the speedup comes from.
//
// stop is only ever called from the dispatcher goroutine (once per
// unconfirmed candidate, in candidate order, exactly as the serial scan
// does), so callers may pass predicates that are not goroutine-safe.
func convexPointsSpeculative(points []geom.Vector, stop func() bool, o obs.Observer, workers int) ([]int, error) {
	n := len(points)
	c := seedConfirmed(points)

	// Batch size adapts to the confirm rate: every commit that grows the
	// confirmed set discards the rest of its batch, so while confirms are
	// frequent (the early part of the scan, where the convex set is still
	// being discovered) wide batches only burn CPU on doomed speculation.
	// Start narrow, double after each batch that commits whole, halve on a
	// stale discard. The reject-only tail — the bulk of the LP work —
	// quickly reaches full width. The schedule depends only on commit
	// outcomes, which are deterministic, so it is reproducible run to run.
	batchCap := 2 * workers
	batchSize := 1
	batch := make([]int, 0, batchCap)
	var results []speculation
	next := 0
	for next < n {
		batch = batch[:0]
		scan := next
		for ; scan < n && len(batch) < batchSize; scan++ {
			if !c.in[scan] {
				batch = append(batch, scan)
			}
		}
		if len(batch) == 0 {
			next = scan
			continue
		}

		version := len(c.list)
		snap := c.snapshot()
		if cap(results) < len(batch) {
			results = make([]speculation, len(batch))
		}
		results = results[:len(batch)]
		parallel.Do(workers, len(batch), func(i int) {
			rec := &obs.Recorder{}
			ext, err := testCandidate(points, batch[i], snap, rec)
			results[i] = speculation{ext: ext, rec: rec, err: err}
		})

		// Commit in candidate order, mirroring the serial loop's per-candidate
		// sequence: skip-if-confirmed, stop check, then the candidate's work.
		next = scan
		stale := false
		for i, p := range batch {
			if c.in[p] {
				continue // confirmed by an earlier commit; serial skips silently
			}
			if len(c.list) != version {
				// An earlier commit grew the confirmed set, so this slot's
				// LPs ran against a stale constraint set. Re-speculate from
				// here with the fresh snapshot. Checked before stop() so a
				// discarded slot does not consume a budget probe — stop()
				// must fire exactly once per committed candidate, as in the
				// serial scan.
				next = p
				stale = true
				break
			}
			if stop != nil && stop() {
				return c.sorted(), nil
			}
			r := results[i]
			r.rec.Replay(o)
			if r.err != nil {
				return c.sorted(), r.err
			}
			c.add(r.ext...)
			obs.ConvexPointTest(o, p, c.in[p])
		}
		if stale {
			if batchSize > 1 {
				batchSize /= 2
			}
		} else if batchSize < batchCap {
			batchSize *= 2
		}
	}
	return c.sorted(), nil
}

// speculation is one worker's test of one candidate: the confirms it made
// (in order; the candidate itself last iff it was confirmed), its private
// event tape, and the error if its certificates failed.
type speculation struct {
	ext []int
	rec *obs.Recorder
	err error
}

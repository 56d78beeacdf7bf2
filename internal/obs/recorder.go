package obs

// Recorder buffers events for deferred, in-order replay. The preprocessing
// cache (internal/prep, DESIGN.md §14.2) records a computation's events into
// one and stores the tape next to the memoized value; every caller replays
// it (ReplayTape), so cached and cold sessions emit identical streams. Tests
// use it to capture a run's stream.
//
// A Recorder is NOT safe for concurrent use. Events hold only value types,
// so a recorded event replays bit-identically.
type Recorder struct {
	events []Event
}

// Event implements Observer.
func (r *Recorder) Event(e Event) { r.events = append(r.events, e) }

// Events returns the recorded tape in arrival order. The slice aliases the
// recorder's buffer; callers that outlive the recorder should copy it.
func (r *Recorder) Events() []Event { return r.events }

// Len reports how many events are buffered.
func (r *Recorder) Len() int { return len(r.events) }

// ReplayTape emits a recorded tape, in order, into o (nil-safe: replaying
// into a nil observer is a no-op, like every emit in this package).
func ReplayTape(tape []Event, o Observer) {
	for _, e := range tape {
		Emit(o, e)
	}
}

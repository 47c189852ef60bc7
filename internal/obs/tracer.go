package obs

import "sync"

// Tracer records typed events into a bounded ring buffer. When the ring
// fills, the oldest events are overwritten and counted as dropped, so a
// long simulation keeps its most recent window rather than growing without
// bound.
//
// Emit on a nil or disabled Tracer returns immediately and performs zero
// heap allocations, so instrumentation can stay in place permanently.
// All methods are safe for concurrent use; the hot path takes one mutex.
type Tracer struct {
	mu      sync.Mutex
	enabled bool
	buf     []Event
	next    int    // ring index of the next write
	total   uint64 // events ever emitted (including overwritten)
}

// NewTracer returns an enabled tracer holding at most capacity events.
// Capacity below 1 falls back to DefaultRingCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = DefaultRingCapacity
	}
	return &Tracer{enabled: true, buf: make([]Event, capacity)}
}

// Emit records ev. It is a no-op on a nil or disabled tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return
	}
	t.buf[t.next] = ev
	t.next = (t.next + 1) % len(t.buf)
	t.total++
}

// Enabled reports whether Emit records anything.
func (t *Tracer) Enabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.enabled
}

// SetEnabled turns recording on or off without discarding the buffer.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.enabled = on
}

// Len returns how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lenLocked()
}

func (t *Tracer) lenLocked() int {
	if t.total < uint64(len(t.buf)) {
		return int(t.total)
	}
	return len(t.buf)
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= uint64(len(t.buf)) {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the retained events oldest-first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.lenLocked()
	out := make([]Event, 0, n)
	if t.total >= uint64(len(t.buf)) {
		// Ring full (wrapped or exactly filled, which leaves the cursor
		// back at 0): the oldest entry sits at the write cursor.
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf[:t.next]...)
}

// Reset discards all retained events and the drop counter.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next = 0
	t.total = 0
}

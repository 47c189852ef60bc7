package obs

import (
	"testing"
)

func TestRingBufferBounds(t *testing.T) {
	tr := NewTracer(4)
	if tr.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", tr.Cap())
	}
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Type: EvTaskDone, Task: i, Time: float64(i)})
	}
	if tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("len = %d dropped = %d, want 3/0", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if ev.Task != i {
			t.Errorf("event %d task = %d", i, ev.Task)
		}
	}
	// Overflow: capacity stays fixed, oldest events fall off, order holds.
	for i := 3; i < 10; i++ {
		tr.Emit(Event{Type: EvTaskDone, Task: i, Time: float64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len after wrap = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
	if tr.Total() != 10 {
		t.Errorf("total = %d, want 10", tr.Total())
	}
	evs = tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events len = %d", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Task != want {
			t.Errorf("wrapped event %d task = %d, want %d", i, ev.Task, want)
		}
	}
}

// A ring filled to exactly its capacity has dropped nothing and must
// return every event, even though its write cursor is back at 0.
func TestRingExactlyFull(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 4; i++ {
		tr.Emit(Event{Type: EvTaskDone, Task: i})
	}
	evs := tr.Events()
	if tr.Dropped() != 0 || len(evs) != 4 {
		t.Fatalf("exactly full ring: dropped %d, %d events, want 0 and 4", tr.Dropped(), len(evs))
	}
	for i, ev := range evs {
		if ev.Task != i {
			t.Errorf("event %d task = %d", i, ev.Task)
		}
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(Event{Type: EvJobSubmit})
	tr.Emit(Event{Type: EvJobSubmit})
	tr.Emit(Event{Type: EvJobSubmit})
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Errorf("after reset: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	tr.Emit(Event{Type: EvJobFinish, Job: 7})
	if evs := tr.Events(); len(evs) != 1 || evs[0].Job != 7 {
		t.Errorf("post-reset events = %+v", evs)
	}
}

func TestNilAndDisabledTracerAreSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Type: EvTaskDone})
	if tr.Len() != 0 || tr.Enabled() || tr.Events() != nil {
		t.Error("nil tracer not inert")
	}
	tr2 := NewTracer(8)
	tr2.SetEnabled(false)
	tr2.Emit(Event{Type: EvTaskDone})
	if tr2.Len() != 0 {
		t.Error("disabled tracer recorded an event")
	}
	tr2.SetEnabled(true)
	tr2.Emit(Event{Type: EvTaskDone})
	if tr2.Len() != 1 {
		t.Error("re-enabled tracer did not record")
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	disabled := NewTracer(16)
	disabled.SetEnabled(false)
	var nilTr *Tracer
	enabled := NewTracer(16)
	cases := map[string]*Tracer{"disabled": disabled, "nil": nilTr, "enabled": enabled}
	for name, tr := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			tr.Emit(Event{Type: EvTaskDone, Time: 1.5, Dur: 0.5, Node: 3, Pool: "us-east-1a"})
		})
		if allocs != 0 {
			t.Errorf("%s tracer: %v allocs per Emit, want 0", name, allocs)
		}
	}
}

func TestEventTypeStrings(t *testing.T) {
	types := []EventType{
		EvJobSubmit, EvJobFinish, EvStageSubmit, EvStageDone, EvTaskLaunch,
		EvTaskDone, EvCheckpointBegin, EvCheckpointEnd, EvBlockEvict,
		EvNodeUp, EvNodeWarning, EvNodeRevoked, EvPriceChange,
	}
	seen := map[string]bool{}
	for _, typ := range types {
		s := typ.String()
		if s == "unknown" || s == "" {
			t.Errorf("type %d has no name", typ)
		}
		if seen[s] {
			t.Errorf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if EventType(200).String() != "unknown" {
		t.Error("out-of-range type should stringify as unknown")
	}
}

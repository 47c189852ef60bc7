package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterAndGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter not inert")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge not inert")
	}
	c2 := &Counter{}
	c2.Inc()
	c2.Add(4)
	c2.Add(-10) // counters never decrease
	if c2.Value() != 5 {
		t.Errorf("counter = %d, want 5", c2.Value())
	}
	g2 := &Gauge{}
	g2.Set(2.5)
	if g2.Value() != 2.5 {
		t.Errorf("gauge = %v", g2.Value())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// 100 uniform samples in (0, 10): 10 per bucket.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i)/10 + 0.05)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-500) > 1 {
		t.Errorf("sum = %v, want ≈500", got)
	}
	cases := []struct{ p, want, tol float64 }{
		{0, 0.05, 1e-9}, // exact observed min
		{1, 9.95, 1e-9}, // exact observed max
		{0.5, 5, 0.15},  // interior quantiles interpolate inside a bucket
		{0.9, 9, 0.15},
		{0.1, 1, 0.15},
		{0.99, 9.9, 0.2},
	}
	for _, c := range cases {
		if got := h.Quantile(c.p); math.Abs(got-c.want) > c.tol {
			t.Errorf("Quantile(%v) = %v, want %v ± %v", c.p, got, c.want, c.tol)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Error("nil histogram not inert")
	}
	h := newHistogram([]float64{10})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 0 {
		t.Error("NaN was recorded")
	}
	h.Observe(42) // lands in the +Inf overflow bucket
	if got := h.Quantile(0.5); got != 42 {
		t.Errorf("single overflow sample quantile = %v, want 42", got)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "other help")
	if c1 != c2 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x_total", "boom")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("flint_demo_total", "A demo counter.").Add(3)
	r.Gauge("flint_demo_gauge", "A demo gauge.").Set(1.5)
	r.GaugeFunc("flint_demo_price", "Per-pool price.", Labels{"pool": "us-east-1a"}, func() float64 { return 0.25 })
	r.GaugeFunc("flint_demo_price", "Per-pool price.", Labels{"pool": "us-east-1b"}, func() float64 { return 0.5 })
	h := r.Histogram("flint_demo_seconds", "A demo histogram.", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP flint_demo_gauge A demo gauge.
# TYPE flint_demo_gauge gauge
flint_demo_gauge 1.5
# HELP flint_demo_price Per-pool price.
# TYPE flint_demo_price gauge
flint_demo_price{pool="us-east-1a"} 0.25
flint_demo_price{pool="us-east-1b"} 0.5
# HELP flint_demo_seconds A demo histogram.
# TYPE flint_demo_seconds histogram
flint_demo_seconds_bucket{le="1"} 1
flint_demo_seconds_bucket{le="5"} 2
flint_demo_seconds_bucket{le="+Inf"} 3
flint_demo_seconds_sum 33.5
flint_demo_seconds_count 3
# HELP flint_demo_total A demo counter.
# TYPE flint_demo_total counter
flint_demo_total 3
`
	if b.String() != want {
		t.Errorf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// The bundle exports the tracer's ring overflow as a gauge, so a
// truncated Chrome trace is visible in /metrics, not only on stderr.
func TestObsExportsDroppedTraceEvents(t *testing.T) {
	o := New(Options{RingCapacity: 4})
	for i := 0; i < 10; i++ {
		o.Emit(Event{Type: EvTaskDone})
	}
	var b strings.Builder
	if err := o.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "flint_trace_dropped_events 6\n") {
		t.Errorf("prometheus output lacks 6 dropped events:\n%s", b.String())
	}
}

func TestObsBundleAndDefault(t *testing.T) {
	o := New(Options{RingCapacity: 8})
	o.TasksLaunched.Inc()
	o.TaskDur.Observe(2)
	o.Emit(Event{Type: EvTaskDone, Dur: 2})
	if o.Tracer.Len() != 1 {
		t.Error("bundle tracer did not record")
	}
	var b strings.Builder
	if err := o.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flint_tasks_launched_total 1", "flint_task_duration_seconds_count 1"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	// Nil bundle and Nop are inert; Active falls back to Nop.
	var nilObs *Obs
	nilObs.Emit(Event{Type: EvJobSubmit})
	if Nop().Tracer.Enabled() {
		t.Error("Nop tracer should be disabled")
	}
	if Default() != nil {
		t.Fatal("unexpected process default")
	}
	if Active() != Nop() {
		t.Error("Active should fall back to Nop")
	}
	SetDefault(o)
	if Active() != o {
		t.Error("Active should return the installed default")
	}
	SetDefault(nil)
}

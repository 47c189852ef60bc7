package dfs

import (
	"fmt"
	"math"
	"testing"

	"flint/internal/simclock"
)

func TestPutGetDelete(t *testing.T) {
	s := New(DefaultConfig())
	s.Put("k", []int{1, 2, 3}, 100, 0)
	v, n, ok := s.Get("k", 1)
	if !ok || n != 100 {
		t.Fatalf("Get = %v,%v,%v", v, n, ok)
	}
	rows := v.([]int)
	if len(rows) != 3 || rows[2] != 3 {
		t.Fatalf("value corrupted: %v", rows)
	}
	if !s.Has("k") || s.Has("missing") {
		t.Error("Has broken")
	}
	s.Delete("k", 2)
	if _, _, ok := s.Get("k", 3); ok {
		t.Error("deleted key still present")
	}
	s.Delete("k", 4) // no-op
}

func TestReplaceUpdatesOccupancy(t *testing.T) {
	s := New(Config{ReplicationFactor: 2, WriteBW: 1, ReadBW: 1})
	s.Put("k", nil, 100, 0)
	s.Put("k", nil, 50, 0)
	u := s.UsageAt(0)
	if u.CurrentBytes != 100 { // 50 × replication 2
		t.Fatalf("CurrentBytes = %d, want 100", u.CurrentBytes)
	}
	if u.PeakBytes != 200 {
		t.Fatalf("PeakBytes = %d, want 200", u.PeakBytes)
	}
	if u.BytesWritten != 300 {
		t.Fatalf("BytesWritten = %d, want 300", u.BytesWritten)
	}
}

func TestKeysAndDeletePrefix(t *testing.T) {
	s := New(DefaultConfig())
	s.Put(Key(1, 0), nil, 10, 0)
	s.Put(Key(1, 1), nil, 10, 0)
	s.Put(Key(2, 0), nil, 10, 0)
	ks := s.Keys(RDDPrefix(1))
	if len(ks) != 2 || ks[0] != "rdd/1/part/0" || ks[1] != "rdd/1/part/1" {
		t.Fatalf("Keys = %v", ks)
	}
	if got := s.DeletePrefix(RDDPrefix(1), 1); got != 2 {
		t.Fatalf("DeletePrefix removed %d, want 2", got)
	}
	if s.Has(Key(1, 0)) || !s.Has(Key(2, 0)) {
		t.Error("prefix delete removed wrong keys")
	}
}

func TestWriteAndReadTime(t *testing.T) {
	s := New(Config{ReplicationFactor: 3, WriteBW: 100 << 20, ReadBW: 200 << 20})
	// 100 MB logical → 300 MB transferred at 100 MB/s = 3 s.
	if got := s.WriteTime(100 << 20); math.Abs(got-3) > 1e-9 {
		t.Errorf("WriteTime = %v, want 3", got)
	}
	if got := s.ReadTime(100 << 20); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ReadTime = %v, want 0.5", got)
	}
}

func TestStorageCostIntegral(t *testing.T) {
	cfg := DefaultConfig()
	s := New(cfg)
	// 1 GB logical (3 GB replicated) held for one month: 3 GB-months.
	s.Put("k", nil, 1<<30, 0)
	u := s.UsageAt(30 * simclock.Day)
	if math.Abs(u.GBMonths-3) > 1e-6 {
		t.Fatalf("GBMonths = %v, want 3", u.GBMonths)
	}
	if math.Abs(u.StorageCost-0.30) > 1e-6 {
		t.Fatalf("StorageCost = %v, want 0.30", u.StorageCost)
	}
}

func TestStorageCostStopsAfterDelete(t *testing.T) {
	s := New(DefaultConfig())
	s.Put("k", nil, 1<<30, 0)
	s.Delete("k", 15*simclock.Day)
	u := s.UsageAt(30 * simclock.Day)
	if math.Abs(u.GBMonths-1.5) > 1e-6 {
		t.Fatalf("GBMonths = %v, want 1.5", u.GBMonths)
	}
	if u.Deletes != 1 {
		t.Errorf("Deletes = %d", u.Deletes)
	}
}

func TestUsageCounters(t *testing.T) {
	s := New(DefaultConfig())
	s.Put("a", nil, 10, 0)
	s.Put("b", nil, 20, 0)
	s.Get("a", 1)
	s.Get("a", 2)
	u := s.UsageAt(3)
	if u.Puts != 2 || u.Gets != 2 {
		t.Errorf("counters = %+v", u)
	}
	if u.BytesRead != 20 {
		t.Errorf("BytesRead = %d, want 20", u.BytesRead)
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	s := New(DefaultConfig())
	s.Put("k", nil, -5, 0)
	_, n, ok := s.Get("k", 0)
	if !ok || n != 0 {
		t.Errorf("negative size not clamped: %d", n)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	s := New(Config{})
	if s.Config().ReplicationFactor != 3 {
		t.Error("zero config should default replication to 3")
	}
	if s.WriteTime(1<<20) <= 0 || s.ReadTime(1<<20) <= 0 {
		t.Error("zero-config bandwidths must be positive")
	}
}

func TestDurabilityAcrossManyOperations(t *testing.T) {
	// Checkpoints must never disappear except via Delete — the EBS
	// durability property Flint relies on.
	s := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		s.Put(Key(i, 0), i, 1000, float64(i))
	}
	for i := 0; i < 100; i++ {
		v, _, ok := s.Get(Key(i, 0), 200)
		if !ok || v.(int) != i {
			t.Fatalf("object %d lost or corrupted", i)
		}
	}
}

func TestAppendKeyMatchesKeyFormat(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {7, 12}, {123456, 987654321}} {
		want := fmt.Sprintf("rdd/%d/part/%d", c[0], c[1])
		if got := Key(c[0], c[1]); got != want {
			t.Errorf("Key = %q, want %q", got, want)
		}
		if got := string(AppendKey([]byte("x"), c[0], c[1])); got != "x"+want {
			t.Errorf("AppendKey = %q, want %q", got, "x"+want)
		}
		if got := string(AppendPartKey(nil, "fncache/", c[0], c[1])); got != fmt.Sprintf("fncache/%d/part/%d", c[0], c[1]) {
			t.Errorf("AppendPartKey = %q", got)
		}
		if got, want := RDDPrefix(c[0]), fmt.Sprintf("rdd/%d/", c[0]); got != want {
			t.Errorf("RDDPrefix = %q, want %q", got, want)
		}
	}
}

// Probe answers exactly like Has, flags answers that came from the
// read-fault hook, and does not allocate without one.
func TestProbeMatchesHas(t *testing.T) {
	s := New(DefaultConfig())
	s.Put(Key(1, 2), nil, 10, 0)
	present, absent := AppendKey(nil, 1, 2), AppendKey(nil, 1, 3)
	if ok, v := s.Probe(present); !ok || v {
		t.Errorf("present key: ok=%v volatile=%v", ok, v)
	}
	if ok, v := s.Probe(absent); ok || v {
		t.Errorf("absent key: ok=%v volatile=%v", ok, v)
	}
	if n := testing.AllocsPerRun(100, func() { s.Probe(present); s.Probe(absent) }); n != 0 {
		t.Errorf("Probe allocates %.1f times per run", n)
	}
	faulting := true
	s.SetReadFault(func(string) bool { return faulting })
	if ok, v := s.Probe(present); ok || !v || s.Has(Key(1, 2)) {
		t.Errorf("faulted key: ok=%v volatile=%v", ok, v)
	}
	faulting = false
	if ok, v := s.Probe(present); !ok || !v || !s.Has(Key(1, 2)) {
		t.Errorf("hooked readable key: ok=%v volatile=%v", ok, v)
	}
	if ok, v := s.Probe(absent); ok || v {
		t.Errorf("absent key under a hook: ok=%v volatile=%v", ok, v)
	}
}

// The presence log records creations and deletions (not overwrites),
// in order, and reports a reader that fell behind it as incomplete.
func TestChangesLogsPresence(t *testing.T) {
	s := New(DefaultConfig())
	_, seq, _ := s.Changes(0, nil)
	s.Put("a", nil, 1, 0)
	s.Put("a", nil, 2, 1) // overwrite: presence unchanged
	s.Put("rdd/3/part/0", nil, 1, 1)
	s.Put("rdd/3/part/1", nil, 1, 1)
	s.Delete("a", 2)
	s.Delete("missing", 2)
	s.DeletePrefix(RDDPrefix(3), 3)
	got, next, complete := s.Changes(seq, nil)
	want := []string{"a", "rdd/3/part/0", "rdd/3/part/1", "a", "rdd/3/part/0", "rdd/3/part/1"}
	if !complete || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("changes = %v (complete=%v), want %v", got, complete, want)
	}
	if none, again, complete := s.Changes(next, nil); len(none) != 0 || again != next || !complete {
		t.Fatalf("caught-up reader: keys=%v next=%d complete=%v", none, again, complete)
	}
	s.SetReadFault(nil)
	if _, _, complete := s.Changes(next, nil); complete {
		t.Error("SetReadFault must invalidate every reader's view")
	}
	_, seq, _ = s.Changes(0, nil)
	for i := 0; i <= maxChangeLog; i++ {
		s.Put(Key(9, i), nil, 1, 4)
	}
	if _, _, complete := s.Changes(seq, nil); complete {
		t.Error("a reader behind the retained log must be told it is incomplete")
	}
}

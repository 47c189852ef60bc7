package market

import (
	"math"
	"sync"
	"testing"

	"flint/internal/simclock"
	"flint/internal/trace"
)

// replayHistoryMTTF is the windowed-MTTF rule as it was computed before
// the prefix-count index: replay the window, and when it is censored
// (usable but revocation-free) replay all history up to now, falling
// back to the observed span. It is the reference HistoryMTTF must match.
func replayHistoryMTTF(p *Pool, bid, t, window float64) float64 {
	switch p.Kind {
	case KindOnDemand:
		return math.Inf(1)
	case KindPreemptible:
		return p.Preempt.MeanLife
	}
	tt := p.traceTime(t)
	lo := tt - window
	if lo < 0 {
		lo = 0
	}
	st := p.Trace.Slice(lo, tt).AnalyzeBid(bid)
	if st.Revocations == 0 && st.UpFraction > 0 {
		full := p.Trace.Slice(0, tt).AnalyzeBid(bid)
		if full.Revocations > 0 {
			st.MTTF = full.MTTF
		} else if tt > 0 {
			st.MTTF = tt
		}
	}
	return st.MTTF
}

func weekExchange(t *testing.T) *Exchange {
	t.Helper()
	e, err := SpotExchange(trace.PoolSet(12, 42), 43, 168, 168, BillPerSecond)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestHistoryMTTFMatchesReplay steps every simulated minute of a week's
// horizon, for every pool at its on-demand bid over a one-week window,
// and requires the index-backed estimate to equal the replay bit for bit
// — the censored-window fallback included.
func TestHistoryMTTFMatchesReplay(t *testing.T) {
	e := weekExchange(t)
	const window = 168 * simclock.Hour
	step := simclock.Minute
	if testing.Short() || raceEnabled {
		// The replay reference is O(window) per call; under the race
		// detector's ~10× slowdown a coprime stride keeps the sweep short
		// while still landing on every minute-of-hour phase.
		step = 13 * simclock.Minute
	}
	censored := 0
	for _, p := range e.Pools() {
		if p.Kind == KindSpot {
			if w := p.Trace.Slice(p.historySpan(0, window)).AnalyzeBid(p.OnDemand); w.Revocations == 0 && w.UpFraction > 0 {
				censored++
			}
		}
	}
	if censored == 0 {
		t.Error("no pool exercises the censored-window fallback")
	}
	for _, p := range e.Pools() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			bid := p.OnDemand
			for now := 0.0; now < 168*simclock.Hour; now += step {
				want := replayHistoryMTTF(p, bid, now, window)
				if got := p.HistoryMTTF(bid, now, window); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("t=%v: HistoryMTTF %v, replay %v", now, got, want)
				}
				if math.Mod(now, simclock.Hour) != 0 {
					continue
				}
				if st := p.HistoryStats(bid, now, window); math.Float64bits(st.MTTF) != math.Float64bits(want) {
					t.Fatalf("t=%v: HistoryStats MTTF %v, replay %v", now, st.MTTF, want)
				}
			}
		})
	}
}

// TestHistoryMTTFRules pins the three branches of the censored-window
// rule on a hand-built trace: a window with revocations, a calm window
// falling back to full history, and a history that never revoked.
func TestHistoryMTTFRules(t *testing.T) {
	// Trace time: 30 calm minutes, a 10-minute spike, 200 calm minutes;
	// simulation time 0 is trace time 4h.
	p := spikyPool("m", 0.2, 5, 240, 30, 10)
	p.Offset = 4 * simclock.Hour
	// 4h window holds the spike: 230 clearing minutes over 1 revocation.
	if got := p.HistoryMTTF(1, 0, 4*simclock.Hour); got != 230*60 {
		t.Errorf("window with revocation: MTTF %v, want %v", got, 230*60)
	}
	// 1h window is calm, so the estimate comes from all history.
	if got := p.HistoryMTTF(1, 0, simclock.Hour); got != 230*60 {
		t.Errorf("censored window: MTTF %v, want full-history %v", got, 230*60)
	}
	// At a bid above the spike nothing ever revoked: the observed span.
	if got := p.HistoryMTTF(10, 0, simclock.Hour); got != 4*simclock.Hour {
		t.Errorf("failure-free history: MTTF %v, want %v", got, 4*simclock.Hour)
	}
	// A bid that never clears reports an unusable market.
	if got := p.HistoryMTTF(0.1, 0, simclock.Hour); got != 0 {
		t.Errorf("unusable market: MTTF %v, want 0", got)
	}
	od := &Pool{Name: "od", Kind: KindOnDemand, OnDemand: 1}
	if got := od.HistoryMTTF(1, 0, simclock.Hour); !math.IsInf(got, 1) {
		t.Errorf("on-demand MTTF %v, want +Inf", got)
	}
}

// After the first call at a bid, the estimate is a map lookup and two
// O(1) slice queries: no allocation on any branch of the rule.
func TestHistoryMTTFAllocFree(t *testing.T) {
	p := spikyPool("m", 0.2, 5, 240, 30, 10)
	p.Offset = 4 * simclock.Hour
	bids := []float64{1, 10, 0.1}
	for _, bid := range bids {
		p.HistoryMTTF(bid, 0, simclock.Hour)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, bid := range bids {
			p.HistoryMTTF(bid, 0, 4*simclock.Hour)
			p.HistoryMTTF(bid, 0, simclock.Hour)
			p.HistoryMTTF(bid, -simclock.Hour, simclock.Hour)
		}
	})
	if allocs != 0 {
		t.Errorf("HistoryMTTF allocates %.1f times per run, want 0", allocs)
	}
}

// Several goroutines racing on a fresh pool's first calls at the same
// bids must build each index once and all see the replay's answers.
// Run under go test -race.
func TestHistoryMTTFConcurrentFirstUse(t *testing.T) {
	e := weekExchange(t)
	const window = 168 * simclock.Hour
	var pools []*Pool
	for _, p := range e.Pools() {
		if p.Kind == KindSpot {
			pools = append(pools, p)
		}
	}
	pools = pools[:4]
	ratios := []float64{0.5, 1, 2}
	times := []float64{0, 3 * simclock.Hour, 50 * simclock.Hour, 167 * simclock.Hour}
	want := make(map[[3]int]float64)
	for i, p := range pools {
		for j, r := range ratios {
			for k, now := range times {
				want[[3]int{i, j, k}] = replayHistoryMTTF(p, r*p.OnDemand, now, window)
			}
		}
	}
	const workers = 6
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < len(pools)*len(ratios)*len(times); n++ {
				// Each worker walks the grid from a different offset so
				// first uses of a bid collide across goroutines.
				c := (n + w*5) % (len(pools) * len(ratios) * len(times))
				i, j, k := c/(len(ratios)*len(times)), c/len(times)%len(ratios), c%len(times)
				p := pools[i]
				got := p.HistoryMTTF(ratios[j]*p.OnDemand, times[k], window)
				if math.Float64bits(got) != math.Float64bits(want[[3]int{i, j, k}]) {
					errs <- p.Name
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: concurrent HistoryMTTF differs from the replay", name)
	}
	for _, p := range pools {
		if len(p.bidIdx) != len(ratios) {
			t.Errorf("%s: %d indexes built for %d bids", p.Name, len(p.bidIdx), len(ratios))
		}
	}
}

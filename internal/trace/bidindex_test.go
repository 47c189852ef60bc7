package trace

import (
	"math"
	"testing"
)

// fuzzSteps are the sample spacings the fuzz target draws from: the
// integral steps the generators use plus fractional ones, which a CSV
// import or an AWS history at a non-integral stepSec can produce.
var fuzzSteps = []float64{60, 1, 3600, 0.1, 0.3, 0.7, 2.9, 59.9}

// FuzzBidIndexMatchesAnalyzeBid cross-checks the prefix-count index
// against the replay it replaces: for a random price series, step, bid
// and slice, BidIndex.Analyze must report exactly what
// Slice(t0, t1).AnalyzeBid(bid) does — MTTF to the bit, the same
// revocation count and UpFraction. Prices sit on a coarse grid so bids
// tie with samples; the bid selector also picks levels that never or
// always clear; slice bounds are drawn in quarter steps, so they land on
// and between samples, touch either edge, invert, and fall outside the
// trace.
func FuzzBidIndexMatchesAnalyzeBid(f *testing.F) {
	spiky := []byte{1, 1, 1, 15, 15, 1, 1, 9, 1, 15, 1, 1}
	f.Add(spiky, uint8(0), uint8(4), int16(0), int16(48))     // whole trace, ties at the bid
	f.Add(spiky, uint8(0), uint8(16), int16(0), int16(48))    // bid never clears
	f.Add(spiky, uint8(0), uint8(17), int16(0), int16(48))    // bid always clears
	f.Add(spiky, uint8(4), uint8(4), int16(13), int16(48))    // run touching the right edge, fractional step
	f.Add(spiky, uint8(5), uint8(2), int16(0), int16(17))     // run touching the left edge
	f.Add(spiky, uint8(1), uint8(4), int16(20), int16(20))    // empty slice
	f.Add(spiky, uint8(2), uint8(4), int16(30), int16(10))    // inverted slice
	f.Add(spiky, uint8(7), uint8(4), int16(-40), int16(9000)) // clamped on both sides
	f.Add(spiky, uint8(3), uint8(4), int16(60), int16(90))    // entirely past the end
	f.Add([]byte{}, uint8(0), uint8(4), int16(0), int16(8))   // empty trace
	f.Add([]byte{15, 1}, uint8(6), uint8(4), int16(-3), int16(7))
	f.Fuzz(func(t *testing.T, raw []byte, stepSel, bidSel uint8, q0, q1 int16) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		prices := make([]float64, len(raw))
		for i, b := range raw {
			prices[i] = float64(b%16) / 4 // 0 .. 3.75 in quarters
		}
		tr := &Trace{Step: fuzzSteps[int(stepSel)%len(fuzzSteps)], Prices: prices}
		bid := float64(bidSel%18) / 4 // 4.25 clears everywhere
		if bidSel%18 == 16 {
			bid = -1 // clears nowhere
		}
		t0 := float64(q0) * tr.Step / 4
		t1 := float64(q1) * tr.Step / 4

		ix := tr.BidIndex(bid)
		for _, span := range [][2]float64{{t0, t1}, {0, tr.Duration()}, {t0, tr.Duration()}, {0, t1}} {
			want := tr.Slice(span[0], span[1]).AnalyzeBid(bid)
			got := ix.Analyze(span[0], span[1])
			if math.Float64bits(got.MTTF) != math.Float64bits(want.MTTF) ||
				got.Revocations != want.Revocations ||
				math.Float64bits(got.UpFraction) != math.Float64bits(want.UpFraction) ||
				got.Bid != want.Bid {
				t.Fatalf("step %v bid %v slice [%v, %v): index %+v, replay MTTF=%v revs=%d up=%v",
					tr.Step, bid, span[0], span[1], got, want.MTTF, want.Revocations, want.UpFraction)
			}
			if want.UpFraction < 0 || want.UpFraction > 1 {
				t.Fatalf("UpFraction %v outside [0, 1]", want.UpFraction)
			}
			if len(want.Lifetimes) != want.Revocations {
				t.Fatalf("%d lifetimes for %d revocations", len(want.Lifetimes), want.Revocations)
			}
		}
	})
}

// A fractional step must not stall the replay: sample times that are not
// exactly representable used to round a revocation instant back into the
// held run, so the acquire/revoke walk never advanced.
func TestAnalyzeBidFractionalStep(t *testing.T) {
	prices := make([]float64, 200)
	for i := range prices {
		prices[i] = 0.5
		if i%7 == 3 {
			prices[i] = 5
		}
	}
	for _, step := range []float64{0.3, 0.7, 2.9, 59.9} {
		st := (&Trace{Step: step, Prices: prices}).AnalyzeBid(1)
		if st.Revocations != 29 {
			t.Errorf("step %v: revocations = %d, want 29", step, st.Revocations)
		}
		if want := float64(200-29) * step / 29; st.MTTF != want {
			t.Errorf("step %v: MTTF = %v, want %v", step, st.MTTF, want)
		}
	}
}

package trace

import "math"

// BidIndex answers AnalyzeBid's count-derived statistics — MTTF,
// Revocations and UpFraction — for any slice of one trace at one bid in
// O(1), instead of replaying the slice. AnalyzeBid's up time is the
// number of clearing samples times Step and its revocations are the
// clearing→non-clearing transitions, so two prefix-count arrays over the
// whole trace hold everything a slice needs:
//
//	up[k]   = clearing samples among indices [0, k)
//	revs[k] = transitions into a non-clearing sample at indices [1, k)
//
// A slice [lo, hi) then held up[hi]−up[lo] samples and saw
// revs[hi]−revs[lo+1] revocations (a transition at the slice's own first
// sample is not one: the replay starts there unheld). The arrays cost
// 8 bytes per sample, about 160 KB for two weeks at one-minute steps.
// A BidIndex is immutable once built and safe for concurrent use; it
// does not see later writes to the trace's Prices.
type BidIndex struct {
	bid  float64
	step float64
	up   []int32
	revs []int32
}

// BidIndex builds the prefix-count index of the trace at bid in one pass.
// It panics if the trace has more samples than an int32 count can hold.
func (tr *Trace) BidIndex(bid float64) *BidIndex {
	n := len(tr.Prices)
	if n >= math.MaxInt32 {
		panic("trace: BidIndex: trace too long for int32 prefix counts")
	}
	ix := &BidIndex{bid: bid, step: tr.Step, up: make([]int32, n+1), revs: make([]int32, n+1)}
	prev := false
	for k, p := range tr.Prices {
		c := clears(p, bid)
		ix.up[k+1] = ix.up[k]
		if c {
			ix.up[k+1]++
		}
		ix.revs[k+1] = ix.revs[k]
		if prev && !c {
			ix.revs[k+1]++
		}
		prev = c
	}
	return ix
}

// Analyze returns tr.Slice(t0, t1).AnalyzeBid(bid), for the trace and
// bid the index was built from, except AvgPrice and Lifetimes, which
// need the prices themselves and stay zero. MTTF, Revocations and
// UpFraction are bit-identical to the replay's. It does not allocate.
func (ix *BidIndex) Analyze(t0, t1 float64) BidStats {
	st := BidStats{Bid: ix.bid, MTTF: math.Inf(1)}
	lo, hi := sliceBounds(ix.step, len(ix.up)-1, t0, t1)
	if lo >= hi {
		return st
	}
	up := int(ix.up[hi] - ix.up[lo])
	revs := int(ix.revs[hi] - ix.revs[lo+1])
	st.setCounts(ix.step, hi-lo, up, revs)
	return st
}

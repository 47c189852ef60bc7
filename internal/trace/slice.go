package trace

// Slice returns the sub-trace covering [t0, t1), re-based so its first
// sample is at time 0. Bounds are clamped to the trace; an inverted or
// fully out-of-range interval yields an empty trace with the same step.
// Slicing shares the underlying price storage.
func (tr *Trace) Slice(t0, t1 float64) *Trace {
	out := &Trace{Step: tr.Step}
	if lo, hi := sliceBounds(tr.Step, len(tr.Prices), t0, t1); lo < hi {
		out.Prices = tr.Prices[lo:hi]
	}
	return out
}

// sliceBounds maps [t0, t1) to the sample range [lo, hi) that Slice keeps
// of an n-sample trace; lo >= hi means the slice is empty.
func sliceBounds(step float64, n int, t0, t1 float64) (lo, hi int) {
	if n == 0 || t1 <= t0 {
		return 0, 0
	}
	lo = int(t0 / step)
	hi = int(t1 / step)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

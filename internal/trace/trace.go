// Package trace models spot-market price histories and transient-server
// lifetimes.
//
// The paper drives Flint's policies with real EC2 spot-price traces
// (January–June 2015) and with empirically measured GCE preemptible-VM
// lifetimes. Neither is available offline, so this package synthesizes
// statistically equivalent inputs:
//
//   - EC2-style traces use a "peaky" model — a low, mildly noisy steady
//     price punctuated by Poisson-arriving price spikes that jump well
//     above the on-demand price and decay after minutes to hours. This is
//     the structure the paper reports ("spot prices in EC2 being 'peaky'
//     where they frequently spike from very low to very high, and then
//     return to a low level", §5.5), and it reproduces the paper's two key
//     properties: MTTF at an on-demand bid ranging from ~18 h to ~700 h
//     across markets (Figure 2a), and expected cost that is flat across a
//     wide band of bid prices (Figure 11b).
//
//   - GCE-style preemptible servers have a fixed price and a hard 24-hour
//     maximum lifetime, with observed MTTFs of 20–23 h (Figure 2b).
//
// Prices are in dollars per hour; times are virtual seconds (see
// internal/simclock).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"flint/internal/simclock"
)

// Trace is a stepwise-constant price series starting at virtual time 0.
type Trace struct {
	// Step is the time resolution in seconds between consecutive samples.
	Step float64
	// Prices holds the $/hour price for each step.
	Prices []float64
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.Prices) }

// Duration returns the total covered time in seconds.
func (tr *Trace) Duration() float64 { return float64(len(tr.Prices)) * tr.Step }

// PriceAt returns the price in effect at time t. Times outside the trace
// clamp to the first/last sample, so a long simulation can outlive its
// trace without special cases.
func (tr *Trace) PriceAt(t float64) float64 {
	if len(tr.Prices) == 0 {
		return 0
	}
	i := int(t / tr.Step)
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Prices) {
		i = len(tr.Prices) - 1
	}
	return tr.Prices[i]
}

// MeanPrice returns the time-weighted mean price over the whole trace.
func (tr *Trace) MeanPrice() float64 {
	if len(tr.Prices) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range tr.Prices {
		s += p
	}
	return s / float64(len(tr.Prices))
}

// MeanPriceOver returns the time-weighted mean price over [t0, t1].
// It is used for the "average market price over a recent window" input to
// Flint's server-selection policy.
func (tr *Trace) MeanPriceOver(t0, t1 float64) float64 {
	if t1 <= t0 || len(tr.Prices) == 0 {
		return tr.PriceAt(t0)
	}
	// Integrate stepwise.
	return tr.Integrate(t0, t1) / ((t1 - t0) / simclock.Hour)
}

// Integrate returns the dollar cost of holding one instance over [t0, t1]
// paying the spot price continuously (per-second billing): ∫ p(t) dt with
// p in $/hour and t in seconds.
func (tr *Trace) Integrate(t0, t1 float64) float64 {
	if t1 <= t0 || len(tr.Prices) == 0 {
		return 0
	}
	cost := 0.0
	t := t0
	for t < t1 {
		i := int(t / tr.Step)
		if i < 0 {
			i = 0
		}
		if i >= len(tr.Prices) {
			i = len(tr.Prices) - 1
		}
		stepEnd := float64(i+1) * tr.Step
		if stepEnd <= t { // beyond trace end: flat extrapolation
			stepEnd = t1
		}
		end := math.Min(stepEnd, t1)
		cost += tr.Prices[i] * (end - t) / simclock.Hour
		t = end
	}
	return cost
}

// NextRevocation returns the first time strictly after t at which the
// price exceeds bid, i.e. when a server held at this bid is revoked.
// ok is false if the price never exceeds the bid before the trace ends.
func (tr *Trace) NextRevocation(t, bid float64) (at float64, ok bool) {
	if len(tr.Prices) == 0 {
		return 0, false
	}
	i := int(t/tr.Step) + 1
	if i < 0 {
		i = 0
	}
	for ; i < len(tr.Prices); i++ {
		if tr.Prices[i] > bid {
			return float64(i) * tr.Step, true
		}
	}
	return 0, false
}

// NextAcquisition returns the first time at or after t at which the price
// is at or below bid, i.e. when a bid at this level would be fulfilled.
// ok is false if the price stays above the bid until the trace ends.
func (tr *Trace) NextAcquisition(t, bid float64) (at float64, ok bool) {
	if len(tr.Prices) == 0 {
		return 0, false
	}
	i := int(t / tr.Step)
	if i < 0 {
		i = 0
	}
	if i >= len(tr.Prices) {
		i = len(tr.Prices) - 1
	}
	for ; i < len(tr.Prices); i++ {
		if tr.Prices[i] <= bid {
			at = float64(i) * tr.Step
			if at < t {
				at = t
			}
			return at, true
		}
	}
	return 0, false
}

// BidStats summarizes how a market behaves for a holder bidding a given
// price: the inputs to the paper's Eq. 1 and Eq. 2.
type BidStats struct {
	Bid         float64
	MTTF        float64   // mean time-to-revocation in seconds; +Inf if never revoked
	AvgPrice    float64   // time-weighted $/hr paid while holding
	Revocations int       // revocation events observed in the trace
	Lifetimes   []float64 // observed time-to-failure samples (seconds), uncensored
	UpFraction  float64   // fraction of trace time the bid would hold a server
}

// AnalyzeBid replays the trace as an acquire/hold/revoke cycle at the
// given bid and returns the resulting statistics. This mirrors how the
// paper estimates MTTF-versus-bid from historical spot prices (§3.1.1).
//
// The replay walks sample indices: a holder acquires at the first sample
// priced at or below the bid and is revoked at the first later sample
// priced above it. Up time is therefore the number of clearing samples
// times Step, and the revocations are the clearing→non-clearing
// transitions, so the MTTF depends only on two counts — the property
// BidIndex relies on to answer it for any slice in O(1).
func (tr *Trace) AnalyzeBid(bid float64) BidStats {
	st := BidStats{Bid: bid, MTTF: math.Inf(1)}
	n := len(tr.Prices)
	up, revs := 0, 0
	paid := 0.0
	for i := 0; i < n; {
		for i < n && !clears(tr.Prices[i], bid) {
			i++
		}
		if i == n {
			break
		}
		j := i + 1
		for j < n && clears(tr.Prices[j], bid) {
			j++
		}
		cost := 0.0
		for k := i; k < j; k++ {
			cost += tr.Prices[k] * tr.Step / simclock.Hour
		}
		paid += cost
		up += j - i
		if j < n {
			revs++
			st.Lifetimes = append(st.Lifetimes, float64(j-i)*tr.Step)
		}
		i = j
	}
	st.setCounts(tr.Step, n, up, revs)
	if up > 0 {
		st.AvgPrice = paid / (float64(up) * tr.Step / simclock.Hour)
	}
	return st
}

// clears reports whether a holder bidding bid keeps (or can acquire) a
// server while the price is p.
func clears(p, bid float64) bool { return p <= bid }

// setCounts fills the count-derived statistics of an n-sample replay that
// held up clearing samples and saw revs revocations. AnalyzeBid and
// BidIndex both go through it, so their MTTF, Revocations and
// UpFraction agree bit for bit.
func (st *BidStats) setCounts(step float64, n, up, revs int) {
	st.Revocations = revs
	if n == 0 {
		return // empty trace: nothing observed, MTTF stays +Inf
	}
	upTime := float64(up) * step
	if up > 0 {
		st.UpFraction = upTime / (float64(n) * step)
	}
	if revs > 0 {
		st.MTTF = upTime / float64(revs)
	} else if up == 0 {
		st.MTTF = 0 // bid never clears: the market is unusable
	}
}

// Profile describes the statistical shape of one synthetic spot market.
type Profile struct {
	Name     string
	OnDemand float64 // on-demand $/hr for the equivalent instance

	BaseFrac  float64 // steady spot price as a fraction of OnDemand (e.g. 0.15)
	NoiseFrac float64 // relative amplitude of steady-state noise (e.g. 0.05)

	SpikesPerHour   float64 // Poisson arrival rate of price spikes
	SpikeDurMeanMin float64 // mean spike duration in minutes (exponential)
	SpikeMagMin     float64 // min spike peak as a multiple of OnDemand
	SpikeMagMax     float64 // max spike peak as a multiple of OnDemand

	// Wobbles are smaller price excursions that stay below the on-demand
	// price. They do not revoke an on-demand-price bidder, but they do
	// revoke low bidders — producing the elevated expected cost at low
	// bids visible on the left of the paper's Figure 11b.
	WobblesPerHour   float64
	WobbleDurMeanMin float64
	WobbleMagMin     float64 // multiple of OnDemand, < 1
	WobbleMagMax     float64 // multiple of OnDemand, < 1
}

// Validate reports whether the profile's parameters are usable.
func (p Profile) Validate() error {
	switch {
	case p.OnDemand <= 0:
		return fmt.Errorf("trace: profile %q: OnDemand must be positive", p.Name)
	case p.BaseFrac <= 0 || p.BaseFrac >= 1:
		return fmt.Errorf("trace: profile %q: BaseFrac must be in (0,1)", p.Name)
	case p.SpikesPerHour < 0:
		return fmt.Errorf("trace: profile %q: negative spike rate", p.Name)
	case p.SpikeMagMin > p.SpikeMagMax:
		return fmt.Errorf("trace: profile %q: SpikeMagMin > SpikeMagMax", p.Name)
	}
	return nil
}

// spike is an internal spike event used during generation.
type spike struct {
	at  float64 // seconds
	dur float64 // seconds
	mag float64 // multiple of OnDemand at peak
}

// sampleSpikes draws a Poisson process of spikes over the horizon.
func (p Profile) sampleSpikes(rng *rand.Rand, horizon float64) []spike {
	out := samplePoissonSpikes(rng, horizon, p.SpikesPerHour, p.SpikeDurMeanMin, p.SpikeMagMin, p.SpikeMagMax)
	if p.WobblesPerHour > 0 {
		w := samplePoissonSpikes(rng, horizon, p.WobblesPerHour, p.WobbleDurMeanMin, p.WobbleMagMin, p.WobbleMagMax)
		out = append(out, w...)
		sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	}
	return out
}

// samplePoissonSpikes draws one Poisson excursion process.
func samplePoissonSpikes(rng *rand.Rand, horizon, perHour, durMeanMin, magMin, magMax float64) []spike {
	var out []spike
	if perHour <= 0 {
		return out
	}
	meanGap := simclock.Hour / perHour
	t := rng.ExpFloat64() * meanGap
	for t < horizon {
		durMean := durMeanMin * simclock.Minute
		if durMean <= 0 {
			durMean = 10 * simclock.Minute
		}
		// Skew magnitudes toward the low end (most excursions are
		// modest, a few are extreme), matching the "peaky" character.
		u := rng.Float64()
		mag := magMin + (magMax-magMin)*u*u
		out = append(out, spike{at: t, dur: rng.ExpFloat64() * durMean, mag: mag})
		t += rng.ExpFloat64() * meanGap
	}
	return out
}

// Generate synthesizes a price trace of the given duration.
func (p Profile) Generate(seed int64, hours, stepSec float64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	horizon := hours * simclock.Hour
	spikes := p.sampleSpikes(rng, horizon)
	return p.render(rng, spikes, horizon, stepSec)
}

// render converts a spike schedule plus steady-state noise into a trace.
func (p Profile) render(rng *rand.Rand, spikes []spike, horizon, stepSec float64) *Trace {
	n := int(math.Ceil(horizon / stepSec))
	if n < 1 {
		n = 1
	}
	prices := make([]float64, n)
	base := p.BaseFrac * p.OnDemand
	// AR(1) noise keeps the steady price wandering gently rather than
	// white-noise jittering.
	noise := 0.0
	const ar = 0.9
	si := 0
	for i := 0; i < n; i++ {
		t := float64(i) * stepSec
		noise = ar*noise + (1-ar)*rng.NormFloat64()
		price := base * (1 + p.NoiseFrac*noise)
		if price < 0.01*p.OnDemand {
			price = 0.01 * p.OnDemand
		}
		// Advance past expired spikes.
		for si < len(spikes) && spikes[si].at+spikes[si].dur < t {
			si++
		}
		// Apply any active spike (spikes may overlap; take the max).
		for j := si; j < len(spikes) && spikes[j].at <= t; j++ {
			if t < spikes[j].at+spikes[j].dur {
				sp := spikes[j].mag * p.OnDemand
				if sp > price {
					price = sp
				}
			}
		}
		prices[i] = price
	}
	return &Trace{Step: stepSec, Prices: prices}
}

// GenerateFamily synthesizes one trace per profile. Profiles whose indices
// share a group in correlatedGroups reuse the same spike arrival schedule
// (scaled to each market's magnitude range), producing the minority of
// correlated market pairs visible in the paper's Figure 4; all other pairs
// get independent spike processes and are uncorrelated.
func GenerateFamily(profiles []Profile, seed int64, hours, stepSec float64, correlatedGroups [][]int) []*Trace {
	horizon := hours * simclock.Hour
	group := make(map[int]int) // profile index -> group id
	for g, members := range correlatedGroups {
		for _, idx := range members {
			group[idx] = g + 1
		}
	}
	// One shared spike schedule per group, sampled with a group-specific
	// seed so groups differ from each other.
	shared := make(map[int][]spike)
	traces := make([]*Trace, len(profiles))
	for i, p := range profiles {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		var spikes []spike
		if g, ok := group[i]; ok {
			if _, done := shared[g]; !done {
				grng := rand.New(rand.NewSource(seed + int64(g)*104729))
				shared[g] = p.sampleSpikes(grng, horizon)
			}
			// Reuse arrival times/durations; magnitude rescaled per market.
			for _, s := range shared[g] {
				u := rng.Float64()
				s.mag = p.SpikeMagMin + (p.SpikeMagMax-p.SpikeMagMin)*u*u
				spikes = append(spikes, s)
			}
		} else {
			spikes = p.sampleSpikes(rng, horizon)
		}
		traces[i] = p.render(rng, spikes, horizon, stepSec)
	}
	return traces
}

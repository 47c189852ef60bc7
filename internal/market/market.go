// Package market models an IaaS transient-server marketplace: a set of
// spot pools (one per instance type per availability zone, as in EC2),
// fixed-price preemptible pools (as in GCE), and a non-revocable
// on-demand pool.
//
// A pool is backed by a price trace (internal/trace). Acquiring a server
// means placing a bid: the lease lasts until the pool price first exceeds
// the bid, exactly the EC2 spot mechanism described in §2.1 of the Flint
// paper. GCE-style pools ignore the bid and sample a per-instance
// lifetime capped at 24 hours. On-demand pools never revoke.
//
// Billing supports the two models the paper discusses: per-second price
// integration ("cost is based on the average spot price over the duration
// of its use") and EC2's hour-granular billing at the price snapshot taken
// at the start of each hour.
package market

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"flint/internal/obs"
	"flint/internal/simclock"
	"flint/internal/trace"
)

// Billing selects how lease cost is computed.
type Billing int

const (
	// BillPerSecond integrates the spot price over the holding period.
	BillPerSecond Billing = iota
	// BillHourly charges every started hour at the price in effect at the
	// start of that hour (the EC2 rule).
	BillHourly
)

// Kind distinguishes pool mechanics.
type Kind int

const (
	// KindSpot is an EC2-style bid-driven market.
	KindSpot Kind = iota
	// KindPreemptible is a GCE-style fixed-price pool with per-instance
	// sampled lifetimes (≤ 24 h).
	KindPreemptible
	// KindOnDemand is a fixed-price, never-revoked pool. The paper models
	// it as "a distinct spot pool with a stable price and zero revocation
	// probability".
	KindOnDemand
)

// Pool is one transient-server market.
type Pool struct {
	Name     string
	Kind     Kind
	OnDemand float64 // $/hr of the equivalent on-demand server

	// Trace backs KindSpot pools. Simulation time t corresponds to trace
	// time t+Offset, so the first Offset seconds of the trace serve as
	// the "recent price history" policies inspect at t=0.
	Trace  *trace.Trace
	Offset float64

	// Preempt backs KindPreemptible pools.
	Preempt *trace.Preemptible

	// bidIdx memoizes Trace's prefix-count index per bid for HistoryMTTF.
	// Each index is built on first use, so constructing an exchange stays
	// O(pools).
	mu     sync.Mutex
	bidIdx map[float64]*trace.BidIndex
}

// traceTime maps simulation time to trace time.
func (p *Pool) traceTime(t float64) float64 { return t + p.Offset }

// PriceAt returns the pool price at simulation time t.
func (p *Pool) PriceAt(t float64) float64 {
	switch p.Kind {
	case KindOnDemand:
		return p.OnDemand
	case KindPreemptible:
		return p.Preempt.Price
	default:
		return p.Trace.PriceAt(p.traceTime(t))
	}
}

// HistoryStats analyzes the pool's recent history — the window seconds
// ending at simulation time t — at the given bid. This is the estimator
// Flint's node manager maintains ("the historical average spot price and
// revocation rate (and MTTF) over a recent time window, e.g., the past
// week", §4). For on-demand pools it returns an infinite MTTF at the
// fixed price; for preemptible pools, the model's mean lifetime. The
// MTTF is HistoryMTTF's; the other fields come from replaying the window.
func (p *Pool) HistoryStats(bid, t, window float64) trace.BidStats {
	switch p.Kind {
	case KindOnDemand:
		return trace.BidStats{Bid: bid, MTTF: math.Inf(1), AvgPrice: p.OnDemand, UpFraction: 1}
	case KindPreemptible:
		return trace.BidStats{Bid: bid, MTTF: p.Preempt.MeanLife, AvgPrice: p.Preempt.Price, UpFraction: 1}
	}
	lo, tt := p.historySpan(t, window)
	st := p.Trace.Slice(lo, tt).AnalyzeBid(bid)
	st.MTTF = p.HistoryMTTF(bid, t, window)
	return st
}

// HistoryMTTF returns the pool's MTTF at the given bid, estimated from
// the window seconds of history ending at simulation time t. When the
// window saw no revocation but the bid did clear, the windowed estimate
// is censored: it falls back to all available history (the paper notes
// Amazon provides three months of price history for exactly this
// purpose), and if even the full history is failure-free, to the
// observed span as a conservative finite estimate. On-demand pools never
// fail (+Inf); preemptible pools report the model's mean lifetime.
//
// Both estimates come from the pool's per-bid prefix-count index
// (trace.BidIndex), so a call costs O(1) after the first at each bid and
// performs no allocation. It is safe for concurrent callers.
func (p *Pool) HistoryMTTF(bid, t, window float64) float64 {
	switch p.Kind {
	case KindOnDemand:
		return math.Inf(1)
	case KindPreemptible:
		return p.Preempt.MeanLife
	}
	lo, tt := p.historySpan(t, window)
	ix := p.bidIndex(bid)
	st := ix.Analyze(lo, tt)
	if st.Revocations == 0 && st.UpFraction > 0 {
		if full := ix.Analyze(0, tt); full.Revocations > 0 {
			return full.MTTF
		}
		if tt > 0 {
			return tt
		}
	}
	return st.MTTF
}

// bidIndex returns the trace's prefix-count index at bid, building it on
// first use.
func (p *Pool) bidIndex(bid float64) *trace.BidIndex {
	p.mu.Lock()
	defer p.mu.Unlock()
	ix := p.bidIdx[bid]
	if ix == nil {
		if p.bidIdx == nil {
			p.bidIdx = make(map[float64]*trace.BidIndex)
		}
		ix = p.Trace.BidIndex(bid)
		p.bidIdx[bid] = ix
	}
	return ix
}

// historySpan maps "the window seconds ending at simulation time t" to
// the trace-time interval [lo, tt) the history estimators read.
func (p *Pool) historySpan(t, window float64) (lo, tt float64) {
	tt = p.traceTime(t)
	lo = tt - window
	if lo < 0 {
		lo = 0
	}
	return lo, tt
}

// HistoryPrices returns the price series over the window seconds ending
// at t, used for pairwise correlation analysis (Figure 4).
func (p *Pool) HistoryPrices(t, window float64) []float64 {
	if p.Kind != KindSpot {
		return nil
	}
	return p.Trace.Slice(p.historySpan(t, window)).Prices
}

// Lease is one held server.
type Lease struct {
	ID       int
	Pool     *Pool
	Bid      float64
	Start    float64 // simulation time of acquisition
	revokeAt float64 // simulation time of revocation; +Inf if never
	ended    bool
	endAt    float64 // voluntary release time, if ended
}

// RevocationTime returns when the provider will revoke this lease; ok is
// false for leases that are never revoked within the simulated horizon.
func (l *Lease) RevocationTime() (float64, bool) {
	if math.IsInf(l.revokeAt, 1) {
		return 0, false
	}
	return l.revokeAt, true
}

// HeldUntil returns the effective end of the holding period as of time t:
// the earliest of t, the revocation, and any voluntary release.
func (l *Lease) HeldUntil(t float64) float64 {
	end := t
	if l.revokeAt < end {
		end = l.revokeAt
	}
	if l.ended && l.endAt < end {
		end = l.endAt
	}
	if end < l.Start {
		end = l.Start
	}
	return end
}

// Exchange is the collection of pools plus acquisition and billing
// mechanics.
type Exchange struct {
	pools   map[string]*Pool
	order   []string // deterministic iteration order
	billing Billing
	rng     *rand.Rand
	nextID  int
	leases  []*Lease
	obs     *obs.Obs
}

// SetObs installs the observability bundle acquisitions and price
// observations are reported to. A nil argument installs the shared no-op
// bundle.
func (e *Exchange) SetObs(o *obs.Obs) {
	if o == nil {
		o = obs.Nop()
	}
	e.obs = o
}

// NewExchange builds an exchange over the given pools. The seed drives
// per-instance preemptible lifetimes only; spot revocations are fully
// determined by the pool traces.
func NewExchange(pools []*Pool, billing Billing, seed int64) (*Exchange, error) {
	e := &Exchange{
		pools:   make(map[string]*Pool, len(pools)),
		billing: billing,
		rng:     rand.New(rand.NewSource(seed)),
		obs:     obs.Active(),
	}
	for _, p := range pools {
		if p.Name == "" {
			return nil, fmt.Errorf("market: pool with empty name")
		}
		if _, dup := e.pools[p.Name]; dup {
			return nil, fmt.Errorf("market: duplicate pool %q", p.Name)
		}
		switch p.Kind {
		case KindSpot:
			if p.Trace == nil || p.Trace.Len() == 0 {
				return nil, fmt.Errorf("market: spot pool %q has no trace", p.Name)
			}
		case KindPreemptible:
			if p.Preempt == nil {
				return nil, fmt.Errorf("market: preemptible pool %q has no model", p.Name)
			}
		}
		e.pools[p.Name] = p
		e.order = append(e.order, p.Name)
	}
	sort.Strings(e.order)
	return e, nil
}

// Pools returns all pools in deterministic (name) order.
func (e *Exchange) Pools() []*Pool {
	out := make([]*Pool, 0, len(e.order))
	for _, n := range e.order {
		out = append(out, e.pools[n])
	}
	return out
}

// Pool returns the named pool, or nil.
func (e *Exchange) Pool(name string) *Pool { return e.pools[name] }

// ErrBidTooLow is returned when a bid is below the pool's current price.
type ErrBidTooLow struct {
	Pool  string
	Price float64
	Bid   float64
}

// Error implements the error interface, naming the pool and both prices.
func (err *ErrBidTooLow) Error() string {
	return fmt.Sprintf("market: bid %.4f below current price %.4f in pool %s", err.Bid, err.Price, err.Pool)
}

// Acquire places a bid in a pool at simulation time t. For spot pools the
// bid must clear the current price; the returned lease's revocation time
// is the first instant the pool price exceeds the bid. Per EC2 policy,
// bids are capped at 10× the on-demand price (§2.1).
func (e *Exchange) Acquire(poolName string, bid, t float64) (*Lease, error) {
	p := e.pools[poolName]
	if p == nil {
		return nil, fmt.Errorf("market: unknown pool %q", poolName)
	}
	if bid > 10*p.OnDemand {
		bid = 10 * p.OnDemand
	}
	l := &Lease{Pool: p, Bid: bid, Start: t, revokeAt: math.Inf(1)}
	switch p.Kind {
	case KindOnDemand:
		// Always available, never revoked.
	case KindPreemptible:
		l.revokeAt = t + p.Preempt.SampleLifetime(e.rng)
	default:
		price := p.PriceAt(t)
		if bid < price {
			return nil, &ErrBidTooLow{Pool: poolName, Price: price, Bid: bid}
		}
		if at, ok := p.Trace.NextRevocation(p.traceTime(t), bid); ok {
			l.revokeAt = at - p.Offset
		}
	}
	e.nextID++
	l.ID = e.nextID
	e.leases = append(e.leases, l)
	e.obs.Acquisitions.Inc()
	// The acquisition price is the moment the system observes the market.
	e.obs.Emit(obs.Event{Type: obs.EvPriceChange, Time: t, Pool: p.Name, Price: p.PriceAt(t)})
	return l, nil
}

// Release voluntarily ends a lease at time t (e.g. the job finished).
func (e *Exchange) Release(l *Lease, t float64) {
	if !l.ended || t < l.endAt {
		l.ended = true
		l.endAt = t
	}
}

// LeaseCost returns the dollar cost of a lease as of simulation time t
// under the exchange's billing mode.
func (e *Exchange) LeaseCost(l *Lease, t float64) float64 {
	end := l.HeldUntil(t)
	if end <= l.Start {
		return 0
	}
	p := l.Pool
	switch p.Kind {
	case KindOnDemand:
		return e.billFixed(p.OnDemand, l.Start, end)
	case KindPreemptible:
		return e.billFixed(p.Preempt.Price, l.Start, end)
	}
	if e.billing == BillPerSecond {
		return p.Trace.Integrate(p.traceTime(l.Start), p.traceTime(end))
	}
	// Hourly: each started hour billed at its opening price snapshot.
	cost := 0.0
	for h := l.Start; h < end; h += simclock.Hour {
		cost += p.PriceAt(h)
	}
	return cost
}

// billFixed prices a fixed-rate holding period through the shared
// accrual helpers (billing.go): per-second billing is continuous
// integration; hourly billing rounds the duration up to started hours
// before applying the same rate.
func (e *Exchange) billFixed(rate, start, end float64) float64 {
	dur := end - start
	if e.billing == BillHourly {
		dur = BilledSeconds(dur, simclock.Hour, 0)
	}
	return PerSecondCost(rate, dur)
}

// TotalCost sums LeaseCost over every lease ever acquired, as of time t.
func (e *Exchange) TotalCost(t float64) float64 {
	s := 0.0
	for _, l := range e.leases {
		s += e.LeaseCost(l, t)
	}
	return s
}

// Leases returns all leases ever acquired, in acquisition order.
func (e *Exchange) Leases() []*Lease { return e.leases }

// SpotExchange is a convenience constructor: generate traces for the given
// profiles with historyHours of pre-roll before simulation time 0 plus
// horizonHours of future, and wrap them in spot pools. An on-demand pool
// named "on-demand" is added with a price equal to the maximum profile
// on-demand price (a conservative stand-in for the equivalent server).
func SpotExchange(profiles []trace.Profile, seed int64, historyHours, horizonHours float64, billing Billing) (*Exchange, error) {
	return SpotExchangeCorrelated(profiles, seed, historyHours, horizonHours, billing, nil)
}

// PreemptibleExchange builds a GCE-style marketplace: one fixed-price
// preemptible pool per model (per-instance sampled lifetimes, ≤ 24 h)
// plus an on-demand pool at the highest equivalent price. The paper notes
// Flint's policies carry over unchanged because they consume only price
// and MTTF, which preemptible pools expose directly (§2.1, §6).
func PreemptibleExchange(models []trace.Preemptible, billing Billing, seed int64) (*Exchange, error) {
	pools := make([]*Pool, 0, len(models)+1)
	maxOD := 0.0
	for i := range models {
		m := models[i]
		pools = append(pools, &Pool{
			Name: m.Name, Kind: KindPreemptible, OnDemand: m.OnDemand, Preempt: &m,
		})
		if m.OnDemand > maxOD {
			maxOD = m.OnDemand
		}
	}
	pools = append(pools, &Pool{Name: "on-demand", Kind: KindOnDemand, OnDemand: maxOD})
	return NewExchange(pools, billing, seed)
}

// UniverseExchange builds a marketplace over a generated multi-market
// universe (trace.Universe): one spot pool per universe market with
// historyHours of pre-roll before simulation time 0 plus horizonHours of
// future, and an on-demand pool at the maximum per-market on-demand
// price. Traces are rendered at one-minute resolution and retain the
// universe's cross-market revocation correlation, which is what the
// portfolio selector (internal/policy) prices. The seed drives
// preemptible lifetimes only (there are none here), mirroring
// NewExchange; trace content is fully determined by the universe spec.
func UniverseExchange(u *trace.Universe, historyHours, horizonHours float64, billing Billing, seed int64) (*Exchange, error) {
	const step = 60 // one-minute resolution, like EC2's published feeds
	traces := u.Traces(historyHours+horizonHours, step)
	pools := make([]*Pool, 0, len(u.Profiles)+1)
	maxOD := 0.0
	for i, p := range u.Profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		pools = append(pools, &Pool{
			Name: p.Name, Kind: KindSpot, OnDemand: p.OnDemand,
			Trace: traces[i], Offset: historyHours * simclock.Hour,
		})
		if p.OnDemand > maxOD {
			maxOD = p.OnDemand
		}
	}
	pools = append(pools, &Pool{Name: "on-demand", Kind: KindOnDemand, OnDemand: maxOD})
	return NewExchange(pools, billing, seed)
}

// SpotExchangeCorrelated is SpotExchange with correlated spike groups
// passed through to trace.GenerateFamily.
func SpotExchangeCorrelated(profiles []trace.Profile, seed int64, historyHours, horizonHours float64, billing Billing, groups [][]int) (*Exchange, error) {
	const step = 60 // one-minute resolution, like EC2's published feeds
	traces := trace.GenerateFamily(profiles, seed, historyHours+horizonHours, step, groups)
	pools := make([]*Pool, 0, len(profiles)+1)
	maxOD := 0.0
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		pools = append(pools, &Pool{
			Name: p.Name, Kind: KindSpot, OnDemand: p.OnDemand,
			Trace: traces[i], Offset: historyHours * simclock.Hour,
		})
		if p.OnDemand > maxOD {
			maxOD = p.OnDemand
		}
	}
	pools = append(pools, &Pool{Name: "on-demand", Kind: KindOnDemand, OnDemand: maxOD})
	return NewExchange(pools, billing, seed)
}

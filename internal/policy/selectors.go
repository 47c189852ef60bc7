package policy

import (
	"math"
	"sort"

	"flint/internal/cluster"
	"flint/internal/market"
	"flint/internal/stats"
)

// composition tracks how many of the cluster's servers come from each
// pool, so the selectors can report the aggregate cluster MTTF to the
// fault-tolerance manager.
type composition struct {
	counts map[string]int
}

func newComposition() *composition { return &composition{counts: make(map[string]int)} }

func (c *composition) add(pool string, n int) { c.counts[pool] += n }
func (c *composition) remove(pool string, n int) {
	c.counts[pool] -= n
	if c.counts[pool] <= 0 {
		delete(c.counts, pool)
	}
}

// pools returns the distinct pools currently present, sorted.
func (c *composition) pools() []string {
	out := make([]string, 0, len(c.counts))
	for p := range c.counts {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// clusterMTTF aggregates the MTTFs of the distinct pools present in the
// composition with the failure-rate sum of Eq. 3. All servers within one
// pool share a revocation event, so each pool contributes one failure
// source regardless of how many servers it supplies.
func clusterMTTF(exch *market.Exchange, comp *composition, now float64, p Params) float64 {
	p = p.withDefaults()
	var mttfs []float64
	for _, name := range comp.pools() {
		pool := exch.Pool(name)
		if pool == nil {
			continue
		}
		mttfs = append(mttfs, pool.HistoryMTTF(p.BidMultiple*pool.OnDemand, now, p.Window))
	}
	return stats.RateSum(mttfs)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// Batch is the server-selection policy for batch BIDI jobs (§3.1.2):
// provision a homogeneous cluster from the single market minimizing the
// expected cost of Eq. 2, and on revocation move the whole replacement to
// the next-cheapest market whose price is not spiking.
type Batch struct {
	Exch   *market.Exchange
	Params Params
	comp   *composition
}

var _ cluster.Selector = (*Batch)(nil)

// NewBatch builds the batch selector.
func NewBatch(exch *market.Exchange, p Params) *Batch {
	return &Batch{Exch: exch, Params: p.withDefaults(), comp: newComposition()}
}

// pick returns the first snapshot entry that is eligible.
func pick(infos []MarketInfo, exclude []string) *MarketInfo {
	for i := range infos {
		mi := &infos[i]
		if mi.Spiking || contains(exclude, mi.Pool.Name) {
			continue
		}
		return mi
	}
	return nil
}

// Initial provisions all n servers from the minimum-expected-cost market.
func (s *Batch) Initial(now float64, n int) []cluster.Request {
	snap := Snapshot(s.Exch, now, s.Params)
	mi := pick(snap, nil)
	if mi == nil {
		return nil
	}
	s.comp.add(mi.Pool.Name, n)
	return []cluster.Request{{Pool: mi.Pool.Name, Bid: mi.Bid, Count: n}}
}

// Replace re-runs the selection excluding the revoked market ("Flint does
// not consider the market that experienced the revocation event").
func (s *Batch) Replace(now float64, revokedPool string, exclude []string, n int) []cluster.Request {
	s.comp.remove(revokedPool, n)
	snap := Snapshot(s.Exch, now, s.Params)
	mi := pick(snap, exclude)
	if mi == nil {
		return nil
	}
	s.comp.add(mi.Pool.Name, n)
	return []cluster.Request{{Pool: mi.Pool.Name, Bid: mi.Bid, Count: n}}
}

// MTTF reports the cluster's aggregate MTTF for the checkpointing policy.
func (s *Batch) MTTF(now float64) float64 {
	return clusterMTTF(s.Exch, s.comp, now, s.Params)
}

// Composition returns the current pool→server-count map (copy).
func (s *Batch) Composition() map[string]int {
	out := make(map[string]int, len(s.comp.counts))
	for k, v := range s.comp.counts {
		out[k] = v
	}
	return out
}

// Interactive is the diversified selection policy for interactive BIDI
// jobs (§3.2.2): build the candidate set L of mutually uncorrelated
// markets, then greedily add markets in expected-cost order while the
// modelled running-time variance keeps falling and the expected cost
// stays below on-demand; split the cluster equally across the selection.
type Interactive struct {
	Exch   *market.Exchange
	Params Params
	// JobRuntimeEst is the T used in the variance model (default 1 h).
	JobRuntimeEst float64
	// MaxMarkets caps |S| (default 8).
	MaxMarkets int

	comp   *composition
	chosen []string // selected market names, cheapest first
}

var _ cluster.Selector = (*Interactive)(nil)

// NewInteractive builds the interactive selector.
func NewInteractive(exch *market.Exchange, p Params) *Interactive {
	return &Interactive{
		Exch: exch, Params: p.withDefaults(),
		JobRuntimeEst: 3600, MaxMarkets: 8,
		comp: newComposition(),
	}
}

// SelectMarkets runs the greedy variance-reducing selection and returns
// the chosen markets, cheapest first. Exported for tests and the
// experiment harness.
func (s *Interactive) SelectMarkets(now float64) []MarketInfo {
	p := s.Params
	snap := Snapshot(s.Exch, now, p)
	// Exclude spiking markets and the on-demand pseudo-market from the
	// diversification set (on-demand is the cost ceiling, not a member).
	var candidates []MarketInfo
	onDemandRate := math.Inf(1)
	for _, mi := range snap {
		if mi.Pool.Kind == market.KindOnDemand {
			if mi.Pool.OnDemand < onDemandRate {
				onDemandRate = mi.Pool.OnDemand
			}
			continue
		}
		if !mi.Spiking {
			candidates = append(candidates, mi)
		}
	}
	L := uncorrelatedSet(candidates, now, p)
	if len(L) == 0 {
		return nil
	}
	max := s.MaxMarkets
	if max <= 0 {
		max = 8
	}
	delta := p.Delta()
	best := L[:1]
	bestVar := RuntimeVariance(s.JobRuntimeEst, delta, p.ReplaceDelay, mttfsOf(best))
	for k := 2; k <= len(L) && k <= max; k++ {
		trial := L[:k]
		v := RuntimeVariance(s.JobRuntimeEst, delta, p.ReplaceDelay, mttfsOf(trial))
		cost := MultiRuntimeFactor(delta, p.ReplaceDelay, mttfsOf(trial)) * meanPrice(trial)
		if v >= bestVar || cost > onDemandRate {
			break
		}
		best, bestVar = trial, v
	}
	return best
}

func mttfsOf(infos []MarketInfo) []float64 {
	out := make([]float64, len(infos))
	for i, mi := range infos {
		out[i] = mi.MTTF
	}
	return out
}

func meanPrice(infos []MarketInfo) float64 {
	if len(infos) == 0 {
		return math.Inf(1)
	}
	s := 0.0
	for _, mi := range infos {
		s += mi.AvgPrice
	}
	return s / float64(len(infos))
}

// Initial splits the cluster equally across the selected markets, with
// the remainder going to the cheapest ones.
func (s *Interactive) Initial(now float64, n int) []cluster.Request {
	sel := s.SelectMarkets(now)
	if len(sel) == 0 {
		return nil
	}
	if len(sel) > n {
		sel = sel[:n]
	}
	m := len(sel)
	base := n / m
	rem := n % m
	var out []cluster.Request
	s.chosen = s.chosen[:0]
	for i, mi := range sel {
		count := base
		if i < rem {
			count++
		}
		if count == 0 {
			continue
		}
		s.chosen = append(s.chosen, mi.Pool.Name)
		s.comp.add(mi.Pool.Name, count)
		out = append(out, cluster.Request{Pool: mi.Pool.Name, Bid: mi.Bid, Count: count})
	}
	return out
}

// Replace provisions from the lowest-cost market in L that the cluster is
// not already using ("Flint simply replaces these revoked instances with
// instances from the lowest-cost unused market in set L").
func (s *Interactive) Replace(now float64, revokedPool string, exclude []string, n int) []cluster.Request {
	s.comp.remove(revokedPool, n)
	p := s.Params
	snap := Snapshot(s.Exch, now, p)
	var candidates []MarketInfo
	for _, mi := range snap {
		if mi.Pool.Kind == market.KindOnDemand || mi.Spiking {
			continue
		}
		candidates = append(candidates, mi)
	}
	L := uncorrelatedSet(candidates, now, p)
	// Prefer unused markets; fall back to any eligible one.
	for pass := 0; pass < 2; pass++ {
		for _, mi := range L {
			if contains(exclude, mi.Pool.Name) {
				continue
			}
			if pass == 0 && s.comp.counts[mi.Pool.Name] > 0 {
				continue
			}
			s.comp.add(mi.Pool.Name, n)
			return []cluster.Request{{Pool: mi.Pool.Name, Bid: mi.Bid, Count: n}}
		}
	}
	return nil
}

// MTTF reports the aggregate cluster MTTF per Eq. 3.
func (s *Interactive) MTTF(now float64) float64 {
	return clusterMTTF(s.Exch, s.comp, now, s.Params)
}

// Composition returns the current pool→server-count map (copy).
func (s *Interactive) Composition() map[string]int {
	out := make(map[string]int, len(s.comp.counts))
	for k, v := range s.comp.counts {
		out[k] = v
	}
	return out
}

package main

import (
	"fmt"
	"math/rand"

	"flint/internal/core"
	"flint/internal/dfs"
	"flint/internal/exec"
	"flint/internal/market"
	"flint/internal/obs"
	"flint/internal/policy"
	"flint/internal/rdd"
	"flint/internal/simclock"
	"flint/internal/trace"
	"flint/internal/workload"
)

// Workload sizes. Each run of a workload builds a fresh deployment per
// iteration from the same seed, so every iteration sees the same inputs.
const (
	nodes = 10

	// pagerank-revoke: the detbench scenario of the same name.
	prVertices   = 2500
	prRevokeAt   = 30 // virtual seconds
	prRevokeK    = 2
	wcDocs       = 20000
	tpchPools    = 12
	tpchQueries  = 200 // 10 queries lie beyond the session's p95
	tpchThinkS   = 600 // virtual seconds between queries
	tpchCusts    = 200
	historyHours = 24 * 7
	horizonHours = 24 * 7
	// marketSeed fixes the spot-price traces tpch-interactive runs on.
	// They are part of the workload's definition, like its cluster size:
	// a run's seed varies the tables, not the markets or the queries, so
	// that dollar cost and the response-time tail compare across runs.
	marketSeed = 42
	// sessionSeed fixes the order of the session's query parameters.
	sessionSeed = 42
)

// options selects what an iteration installs besides the job timer.
type options struct {
	workers int
	// wrap installs the checkpoint-policy and selector timing wrappers.
	wrap bool
	// events enables the program's own event tracer (obs.Tracer).
	events bool
}

// instance is one freshly set-up deployment, ready for its timed region.
type instance struct {
	obs     *obs.Obs
	engine  *exec.Engine
	store   *dfs.Store
	clock   *simclock.Clock
	cost    func() float64  // lease plus storage dollars at the current virtual time
	runner  workload.Runner // what the workload submits jobs to
	drive   func(run workload.Runner, rec *recorder) error
	cleanup func()
}

// spec is one benchmark workload. README.md gives the reason for each.
type spec struct {
	name  string
	setup func(seed int64, o options, rec *recorder) (*instance, error)
}

var workloads = []spec{
	{"pagerank-revoke", setupPageRank},
	{"wordcount-wide", setupWordCount},
	{"tpch-interactive", setupTPCH},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// newObs builds the observability bundle of one iteration and points
// rec at it. With events off the tracer is disabled; counters and
// histograms always count. The ring holds a traced iteration's events
// without dropping any.
func newObs(rec *recorder, o options) *obs.Obs {
	b := obs.New(obs.Options{Disabled: true, RingCapacity: 1})
	if o.events {
		b = obs.New(obs.Options{RingCapacity: 1 << 17})
	}
	rec.watch(b)
	return b
}

// testbed launches the flat-price 10-node deployment the detbench
// scenarios run on.
func testbed(o options, rec *recorder, drive func(run workload.Runner, rec *recorder) error) (*instance, *exec.Testbed) {
	bundle := newObs(rec, o)
	id := rec.begin(layerLaunch, "MustTestbed")
	tb := exec.MustTestbed(exec.TestbedOpts{Nodes: nodes, Workers: o.workers, Obs: bundle})
	rec.end(id)
	return &instance{
		obs:    bundle,
		engine: tb.Engine,
		store:  tb.Store,
		clock:  tb.Clock,
		cost: func() float64 {
			now := tb.Clock.Now()
			return tb.Exchange.TotalCost(now) + tb.Store.UsageAt(now).StorageCost
		},
		runner:  tb.Engine,
		drive:   drive,
		cleanup: tb.Cluster.Stop,
	}, tb
}

func setupPageRank(seed int64, o options, rec *recorder) (*instance, error) {
	ctx := rdd.NewContext(2 * nodes)
	cfg := workload.PageRankConfig{
		Vertices: prVertices, AvgDegree: 8, Parts: 20, Iterations: 16,
		TargetBytes: 2 << 30, Weight: 2.2, Seed: seed,
	}
	in, tb := testbed(o, rec, func(run workload.Runner, rec *recorder) error {
		id := rec.begin(layerWorkload, "RunPageRank")
		defer rec.end(id)
		_, err := workload.RunPageRank(run, ctx, cfg)
		return err
	})
	tb.RevokeNodes(prRevokeAt, prRevokeK, true)
	return in, nil
}

func setupWordCount(seed int64, o options, rec *recorder) (*instance, error) {
	ctx := rdd.NewContext(2 * nodes)
	cfg := workload.WordCountConfig{Docs: wcDocs, Parts: 20, Seed: seed}
	in, _ := testbed(o, rec, func(run workload.Runner, rec *recorder) error {
		id := rec.begin(layerWorkload, "RunWordCount")
		defer rec.end(id)
		_, _, err := workload.RunWordCount(run, ctx, cfg)
		return err
	})
	return in, nil
}

func setupTPCH(seed int64, o options, rec *recorder) (*instance, error) {
	bundle := newObs(rec, o)

	id := rec.begin(layerTrace, "SpotExchange")
	exch, err := market.SpotExchange(trace.PoolSet(tpchPools, marketSeed), marketSeed+1, historyHours, horizonHours, market.BillPerSecond)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("spot exchange: %w", err)
	}

	id = rec.begin(layerLaunch, "Launch")
	sp := core.DefaultSpec()
	sp.Engine.Workers = o.workers
	sp.Obs = bundle
	sp.Mode = core.ModeInteractive
	if o.wrap {
		sp.Mode = core.ModeCustom
		sp.Selector = &timedSelector{inner: policy.NewInteractive(exch, sp.Policy), rec: rec}
	}
	ctx := rdd.NewContext(2 * nodes)
	f, err := core.Launch(exch, ctx, sp)
	if err == nil && o.wrap && f.Manager != nil {
		f.Engine.SetPolicy(&timedPolicy{inner: f.Manager, rec: rec})
	}
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}

	id = rec.begin(layerLoad, "Load")
	tp := workload.BuildTPCH(ctx, workload.TPCHConfig{
		Customers: tpchCusts, OrdersPerCust: 8, LinesPerOrder: 4, Parts: 20,
		TargetBytes: 10 << 30, Weight: 20, Seed: seed,
	})
	_, err = tp.Load(f)
	rec.end(id)
	if err != nil {
		f.Stop()
		return nil, fmt.Errorf("load tables: %w", err)
	}

	sess, err := core.NewSession(f)
	if err != nil {
		f.Stop()
		return nil, err
	}
	queries := tpchSession(tp)
	return &instance{
		obs:     bundle,
		engine:  f.Engine,
		store:   f.Store,
		clock:   f.Clock,
		cost:    func() float64 { return f.Cost().Total },
		runner:  sessionRunner{sess},
		cleanup: f.Stop,
		drive: func(run workload.Runner, rec *recorder) error {
			for i, q := range queries {
				id := rec.begin(layerWorkload, q.name)
				err := q.run(run, 1000+i)
				rec.end(id)
				if err != nil {
					return fmt.Errorf("query %d (%s): %w", i, q.name, err)
				}
				id = rec.begin(layerThink, "Think")
				sess.Think(tpchThinkS)
				rec.end(id)
			}
			return nil
		},
	}, nil
}

// sessionRunner submits jobs as interactive queries of a core.Session,
// which records each query's response time.
type sessionRunner struct{ sess *core.Session }

func (r sessionRunner) RunJob(target *rdd.RDD, action exec.Action) (*exec.Result, error) {
	return r.sess.Query(target, action)
}

type query struct {
	name string
	run  func(run workload.Runner, qid int) error
}

// tpchSession lays out the session: Q1, Q3 and Q6 round-robin. Every
// parameter sweeps a fixed grid over its range in a fixed shuffled
// order, so every seed asks the same questions in the same order, over
// its own tables, and market revocations hit the same queries.
func tpchSession(tp *workload.TPCH) []query {
	rng := rand.New(rand.NewSource(sessionSeed))
	n := (tpchQueries + 2) / 3
	grid := func() func() float64 {
		perm := rng.Perm(n)
		k := -1
		return func() float64 {
			k++
			return (float64(perm[k]) + 0.5) / float64(n)
		}
	}
	cutoff, segment, date, shipLo, disc := grid(), grid(), grid(), grid(), grid()
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	qs := make([]query, 0, tpchQueries)
	for i := 0; i < tpchQueries; i++ {
		switch i % 3 {
		case 0:
			c := 1500 + int(1000*cutoff())
			qs = append(qs, query{"Q1", func(run workload.Runner, qid int) error {
				_, _, err := tp.Q1(run, qid, c)
				return err
			}})
		case 1:
			seg, d := segments[int(float64(len(segments))*segment())], 600+int(1200*date())
			qs = append(qs, query{"Q3", func(run workload.Runner, qid int) error {
				_, _, err := tp.Q3(run, qid, seg, d)
				return err
			}})
		default:
			lo, dl := int(2000*shipLo()), 0.01+0.05*disc()
			qs = append(qs, query{"Q6", func(run workload.Runner, qid int) error {
				_, _, err := tp.Q6(run, qid, lo, lo+365, dl, dl+0.02, 25)
				return err
			}})
		}
	}
	return qs
}

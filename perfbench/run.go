package main

import (
	"fmt"
	"runtime"

	"flint/internal/obs"
)

type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	out     string
}

// sample is what one iteration measured: a fresh set-up, then the timed
// region, then the oracle.
type sample struct {
	traced bool
	setupS float64
	// setupSelf is each layer's self time inside set-up.
	setupSelf [numLayers]float64
	wallS     float64
	// stolenS is the steal the machine's CPUs suffered during the timed
	// region and cpuS the CPU time the process used in it.
	stolenS, cpuS float64
	// self is each layer's self time inside the timed region, net of the
	// worker fan-out that happened inside its spans; fanoutS is that
	// fan-out.
	self                     [numLayers]float64
	fanoutS                  float64
	calls                    [numLayers]int
	jobReal                  []float64 // wall seconds per job
	jobVirt                  []float64 // virtual response time per job
	virtualS                 float64
	costUSD                  float64
	allocB                   uint64
	delta                    counters // counter deltas over the timed region
	peakB                    int64    // checkpoint-store peak bytes at the end
	fetchFailures, ckptReads int
	events, dropped          uint64
	workers                  int

	attempted, failed int
	failures          []string
	spans             []span
}

// counters is a snapshot of the program's own obs instruments.
type counters struct {
	tasks, killed, recomputed        int64
	cacheHits, cacheMisses           int64
	shuffleRemote                    int64
	ckptWrites, ckptBytes, ckptMarks int64
	revocations, replacements        int64
	rounds                           uint64
	busyS                            float64
	dfsPuts, dfsGets                 int
}

func snapCounters(in *instance) counters {
	o := in.obs
	u := in.store.UsageAt(in.clock.Now())
	return counters{
		tasks: o.TasksLaunched.Value(), killed: o.TasksKilled.Value(), recomputed: o.Recomputed.Value(),
		cacheHits: o.CacheHits.Value(), cacheMisses: o.CacheMisses.Value(),
		shuffleRemote: o.ShuffleRemote.Value(),
		ckptWrites:    o.CheckpointTasks.Value(), ckptBytes: o.CheckpointBytes.Value(), ckptMarks: o.CkptMarks.Value(),
		revocations: o.Revocations.Value(), replacements: o.Replacements.Value(),
		rounds: o.ExecRoundWall.Count(), busyS: o.WorkerBusy.Sum(),
		dfsPuts: u.Puts, dfsGets: u.Gets,
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		tasks: a.tasks - b.tasks, killed: a.killed - b.killed, recomputed: a.recomputed - b.recomputed,
		cacheHits: a.cacheHits - b.cacheHits, cacheMisses: a.cacheMisses - b.cacheMisses,
		shuffleRemote: a.shuffleRemote - b.shuffleRemote,
		ckptWrites:    a.ckptWrites - b.ckptWrites, ckptBytes: a.ckptBytes - b.ckptBytes, ckptMarks: a.ckptMarks - b.ckptMarks,
		revocations: a.revocations - b.revocations, replacements: a.replacements - b.replacements,
		rounds: a.rounds - b.rounds, busyS: a.busyS - b.busyS,
		dfsPuts: a.dfsPuts - b.dfsPuts, dfsGets: a.dfsGets - b.dfsGets,
	}
}

// iterate sets up a fresh deployment, runs the workload's timed region
// once and checks every job against the oracle.
func iterate(w spec, seed int64, o options, ref *oracle) (*sample, error) {
	rec := newRecorder()
	s := &sample{traced: o.wrap}

	runtime.GC()
	sid := rec.begin(layerHarness, "setup")
	in, err := w.setup(seed, o, rec)
	rec.end(sid)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer in.cleanup()
	s.workers = in.engine.Workers()
	s.setupS = rec.spans[sid].dur()

	runtime.GC()
	before := snapCounters(in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	log := &jobLog{inner: in.runner, rec: rec}
	stolen, cpu := stolenSeconds(), cpuSeconds()
	iid := rec.begin(layerHarness, "iteration")
	driveErr := in.drive(log, rec)
	rec.end(iid)
	s.stolenS, s.cpuS = stolenSeconds()-stolen, cpuSeconds()-cpu
	runtime.ReadMemStats(&ms1)

	s.wallS = rec.spans[iid].dur()
	s.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	s.delta = snapCounters(in).minus(before)
	s.peakB = in.store.UsageAt(in.clock.Now()).PeakBytes
	s.costUSD = in.cost()
	s.events, s.dropped = in.obs.Tracer.Total(), in.obs.Tracer.Dropped()
	s.spans = rec.spans
	selfTimes(s, rec.spans, sid, iid)

	for i, j := range log.jobs {
		s.jobReal = append(s.jobReal, rec.spans[j.span].dur())
		if j.res != nil {
			s.jobVirt = append(s.jobVirt, j.res.Latency())
			s.virtualS += j.res.Latency()
			s.fetchFailures += j.res.Stats.FetchFailures
			s.ckptReads += j.res.Stats.CheckpointReads
		}
		checked, err := ref.check(i, j)
		if checked {
			s.attempted++
		}
		if err != nil {
			s.failed++
			s.failures = append(s.failures, err.Error())
		}
	}
	if driveErr != nil && s.failed == 0 {
		s.attempted++
		s.failed++
		s.failures = append(s.failures, driveErr.Error())
	}
	return s, nil
}

// selfTimes charges every span's self time — its duration minus its
// children's — to its layer, separately for set-up (spans from sid) and
// the timed region (spans from iid). Inside the timed region the
// flint_exec_wall_seconds growth within a span is charged to the worker
// fan-out instead.
func selfTimes(s *sample, spans []span, sid, iid int) {
	childDur := make([]float64, len(spans))
	childFan := make([]float64, len(spans))
	for i := sid; i < len(spans); i++ {
		if p := spans[i].parent; p >= 0 {
			childDur[p] += spans[i].dur()
			childFan[p] += spans[i].fanout()
		}
	}
	for i := sid; i < len(spans); i++ {
		sp := &spans[i]
		self := sp.dur() - childDur[i]
		if i < iid {
			s.setupSelf[sp.layer] += self
			continue
		}
		fan := sp.fanout() - childFan[i]
		s.self[sp.layer] += self - fan
		s.fanoutS += fan
		s.calls[sp.layer]++
	}
}

// hardStopS bounds a run's iterations so that it always ends well inside
// the 180 s a run may take.
const hardStopS = 120

// run iterates the workload for cfg.seconds: one warm-up iteration, then
// timed ones. A traced run alternates traced and untraced iterations so
// that the tracing overhead is measured on the same machine state.
func run(cfg runConfig) (result, error) {
	clock := obs.Stopwatch()
	workers := engineWorkers()
	ref := newOracle()
	var warm *sample
	var timed []*sample
	for i := 0; ; i++ {
		traced := cfg.traced && i%2 == 1
		s, err := iterate(cfg.spec, cfg.seed, options{workers: workers, wrap: traced, events: traced}, ref)
		if err != nil {
			return result{}, err
		}
		if warm == nil {
			warm = s
		} else {
			timed = append(timed, s)
		}
		elapsed := clock()
		if elapsed >= hardStopS || (elapsed >= cfg.seconds && enough(timed, cfg.traced)) {
			break
		}
	}
	return summarize(cfg, warm, timed)
}

// enough reports whether the timed iterations give at least three
// samples of every kind the run reports.
func enough(timed []*sample, traced bool) bool {
	var on, off int
	for _, s := range timed {
		if s.traced {
			on++
		} else {
			off++
		}
	}
	return off >= 3 && (on >= 3 || !traced)
}

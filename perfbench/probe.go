package main

import (
	"flint/internal/cluster"
	"flint/internal/exec"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/workload"
)

// layer names the part of Flint a span's self time is charged to. The
// names are the module names the per-layer metrics use.
type layer uint8

const (
	layerHarness  layer = iota // setup and iteration roots: the benchmark itself
	layerTrace                 // price-trace generation
	layerLaunch                // deployment launch (core.Launch / exec.NewTestbed)
	layerLoad                  // data load and cache warm-up
	layerWorkload              // workload code outside jobs: lineage build, result decode
	layerJob                   // one job, exec.Engine.RunJob
	layerThink                 // session think time: market, cluster and background events
	layerCkpt                  // exec.CheckpointPolicy callbacks into the ckpt manager
	layerMTTF                  // cluster MTTF estimate of the selector
	layerSelect                // server selection: Initial and Replace
	numLayers
)

var layerNames = [numLayers]string{
	"harness", "trace.gen", "core.launch", "workload.load", "workload.drive",
	"exec.job", "cluster.events", "ckpt.policy", "policy.mttf", "policy.select",
}

// span is one timed call at a layer boundary. Spans nest strictly: the
// simulation is single-threaded and every wrapped call returns before
// its caller does.
type span struct {
	name       string
	layer      layer
	parent     int     // index of the enclosing span, -1 for a root
	start, end float64 // seconds since the recorder's epoch
	// fan0 and fan1 read flint_exec_wall_seconds at the span's start and
	// end: the worker fan-out wall time that elapsed inside the span.
	fan0, fan1 float64
}

func (s *span) dur() float64    { return s.end - s.start }
func (s *span) fanout() float64 { return s.fan1 - s.fan0 }

// recorder keeps the benchmark's own spans in memory. It reads the wall
// clock through obs.Stopwatch, the program's one wall-clock chokepoint.
type recorder struct {
	now   func() float64
	fan   *obs.Histogram // the deployment's flint_exec_wall_seconds
	spans []span
	open  []int
}

func newRecorder() *recorder {
	return &recorder{now: obs.Stopwatch()}
}

// watch points the recorder at the fan-out histogram of the bundle the
// deployment reports to.
func (r *recorder) watch(o *obs.Obs) { r.fan = o.ExecRoundWall }

func (r *recorder) begin(l layer, name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, layer: l, parent: parent, fan0: r.fan.Sum(), start: r.now()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.end = r.now()
	s.fan1 = r.fan.Sum()
	r.open = r.open[:len(r.open)-1]
}

// jobLog is the workload.Runner the workloads submit through: it times
// every job as a span and keeps what the oracle needs to check it.
type jobLog struct {
	inner workload.Runner
	rec   *recorder
	jobs  []jobRun
}

type jobRun struct {
	target *rdd.RDD
	action exec.Action
	res    *exec.Result
	err    error
	span   int
}

func (l *jobLog) RunJob(target *rdd.RDD, action exec.Action) (*exec.Result, error) {
	id := l.rec.begin(layerJob, "RunJob")
	res, err := l.inner.RunJob(target, action)
	l.rec.end(id)
	l.jobs = append(l.jobs, jobRun{target: target, action: action, res: res, err: err, span: id})
	return res, err
}

// timedPolicy wraps the checkpoint policy the engine calls. It forwards
// exec.FailureAwarePolicy so abandoned writes still reach the manager.
type timedPolicy struct {
	inner exec.CheckpointPolicy
	rec   *recorder
}

var (
	_ exec.CheckpointPolicy   = (*timedPolicy)(nil)
	_ exec.FailureAwarePolicy = (*timedPolicy)(nil)
)

func (p *timedPolicy) ShouldCheckpoint(r *rdd.RDD, now float64) bool {
	id := p.rec.begin(layerCkpt, "ShouldCheckpoint")
	ok := p.inner.ShouldCheckpoint(r, now)
	p.rec.end(id)
	return ok
}

func (p *timedPolicy) NotifyStageActive(r *rdd.RDD, now float64) {
	id := p.rec.begin(layerCkpt, "NotifyStageActive")
	p.inner.NotifyStageActive(r, now)
	p.rec.end(id)
}

func (p *timedPolicy) NotifyStageDone(r *rdd.RDD, now float64) {
	id := p.rec.begin(layerCkpt, "NotifyStageDone")
	p.inner.NotifyStageDone(r, now)
	p.rec.end(id)
}

func (p *timedPolicy) NotifyCheckpointDone(r *rdd.RDD, part int, bytes int64, wrote float64, now float64) {
	id := p.rec.begin(layerCkpt, "NotifyCheckpointDone")
	p.inner.NotifyCheckpointDone(r, part, bytes, wrote, now)
	p.rec.end(id)
}

func (p *timedPolicy) NotifyCheckpointFailed(r *rdd.RDD, part, attempts int, now float64) {
	fp, ok := p.inner.(exec.FailureAwarePolicy)
	if !ok {
		return
	}
	id := p.rec.begin(layerCkpt, "NotifyCheckpointFailed")
	fp.NotifyCheckpointFailed(r, part, attempts, now)
	p.rec.end(id)
}

// mttfSelector is a server-selection policy that also estimates the
// cluster's MTTF, which core.Launch feeds to the checkpoint manager.
type mttfSelector interface {
	cluster.Selector
	MTTF(now float64) float64
}

// timedSelector wraps the selector a ModeCustom deployment uses,
// forwarding MTTF so core.Launch still finds it.
type timedSelector struct {
	inner mttfSelector
	rec   *recorder
}

var _ mttfSelector = (*timedSelector)(nil)

func (s *timedSelector) Initial(now float64, n int) []cluster.Request {
	id := s.rec.begin(layerSelect, "Initial")
	out := s.inner.Initial(now, n)
	s.rec.end(id)
	return out
}

func (s *timedSelector) Replace(now float64, revokedPool string, exclude []string, n int) []cluster.Request {
	id := s.rec.begin(layerSelect, "Replace")
	out := s.inner.Replace(now, revokedPool, exclude, n)
	s.rec.end(id)
	return out
}

func (s *timedSelector) MTTF(now float64) float64 {
	id := s.rec.begin(layerMTTF, "MTTF")
	m := s.inner.MTTF(now)
	s.rec.end(id)
	return m
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef computes one metric from the samples of a run.
type metricDef struct {
	name, unit string
	value      func(ss []*sample) float64
}

const gb = float64(1 << 30)

// endToEnd are the metrics a user of Flint sees, measured on untraced
// iterations. Timings are medians over iterations; query latencies pool
// every job of every iteration. Timed regions are reported net of steal
// (see netWall); set-up is too short for the steal counter's 10 ms
// resolution and is reported as measured.
var endToEnd = []metricDef{
	{"wall_s", "s", med(netWallS)},
	{"query_p50_ms", "ms", func(ss []*sample) float64 { return 1000 * quantile(pool(ss, jobNet), 0.5) }},
	{"query_p95_ms", "ms", func(ss []*sample) float64 { return 1000 * quantile(pool(ss, jobNet), 0.95) }},
	{"setup_s", "s", med(func(s *sample) float64 { return s.setupS })},
	{"virtual_s", "s", med(func(s *sample) float64 { return s.virtualS })},
	{"virtual_query_p95_s", "s", func(ss []*sample) float64 { return quantile(pool(ss, jobVirt), 0.95) }},
	{"cost_usd", "USD", med(func(s *sample) float64 { return s.costUSD })},
	{"alloc_mb", "MB", med(func(s *sample) float64 { return float64(s.allocB) / 1e6 })},
}

// perLayer are the metrics of single layers, measured on traced
// iterations, each the median over those iterations.
var perLayer = []metricDef{
	{"exec.control_s", "s", med(func(s *sample) float64 { return s.self[layerJob] })},
	{"exec.fanout_s", "s", med(func(s *sample) float64 { return s.fanoutS })},
	{"exec.busy_s", "s", med(func(s *sample) float64 { return s.delta.busyS })},
	{"exec.worker_util", "ratio", med(func(s *sample) float64 { return ratio(s.delta.busyS, s.fanoutS*float64(s.workers)) })},
	{"exec.rounds", "count", med(func(s *sample) float64 { return float64(s.delta.rounds) })},
	{"exec.tasks", "count", med(func(s *sample) float64 { return float64(s.delta.tasks) })},
	{"exec.recomputed", "count", med(func(s *sample) float64 { return float64(s.delta.recomputed) })},
	{"exec.useful_task_ratio", "ratio", med(func(s *sample) float64 {
		d := s.delta
		return ratio(float64(d.tasks-d.killed-d.recomputed), float64(d.tasks))
	})},
	{"exec.cache_hit_ratio", "ratio", med(func(s *sample) float64 {
		return ratio(float64(s.delta.cacheHits), float64(s.delta.cacheHits+s.delta.cacheMisses))
	})},
	{"exec.shuffle_remote_gb", "GB", med(func(s *sample) float64 { return float64(s.delta.shuffleRemote) / gb })},
	{"exec.fetch_failures", "count", med(func(s *sample) float64 { return float64(s.fetchFailures) })},
	{"ckpt.policy_s", "s", med(func(s *sample) float64 { return s.self[layerCkpt] })},
	{"ckpt.policy_calls", "count", med(func(s *sample) float64 { return float64(s.calls[layerCkpt]) })},
	{"ckpt.writes", "count", med(func(s *sample) float64 { return float64(s.delta.ckptWrites) })},
	{"ckpt.write_gb", "GB", med(func(s *sample) float64 { return float64(s.delta.ckptBytes) / gb })},
	{"ckpt.reads", "count", med(func(s *sample) float64 { return float64(s.ckptReads) })},
	{"ckpt.marks", "count", med(func(s *sample) float64 { return float64(s.delta.ckptMarks) })},
	{"policy.mttf_s", "s", med(func(s *sample) float64 { return s.self[layerMTTF] })},
	{"policy.mttf_calls", "count", med(func(s *sample) float64 { return float64(s.calls[layerMTTF]) })},
	{"policy.select_s", "s", med(func(s *sample) float64 { return s.self[layerSelect] })},
	{"dfs.puts", "count", med(func(s *sample) float64 { return float64(s.delta.dfsPuts) })},
	{"dfs.gets", "count", med(func(s *sample) float64 { return float64(s.delta.dfsGets) })},
	{"dfs.peak_gb", "GB", med(func(s *sample) float64 { return float64(s.peakB) / gb })},
	{"cluster.revocations", "count", med(func(s *sample) float64 { return float64(s.delta.revocations) })},
	{"cluster.replacements", "count", med(func(s *sample) float64 { return float64(s.delta.replacements) })},
	{"cluster.events_s", "s", med(func(s *sample) float64 { return s.self[layerThink] })},
	{"workload.drive_s", "s", med(func(s *sample) float64 { return s.self[layerWorkload] })},
	{"trace.gen_s", "s", med(func(s *sample) float64 { return s.setupSelf[layerTrace] })},
	{"core.launch_s", "s", med(func(s *sample) float64 { return s.setupSelf[layerLaunch] })},
	{"workload.load_s", "s", med(func(s *sample) float64 { return s.setupSelf[layerLoad] })},
	{"layer_coverage", "ratio", med(coverage)},
	{"obs.trace_events", "count", med(func(s *sample) float64 { return float64(s.events) })},
	{"obs.trace_dropped", "count", med(func(s *sample) float64 { return float64(s.dropped) })},
}

// parts are the per-layer metrics that tile the timed region.
var parts = []struct {
	name string
	of   func(s *sample) float64
}{
	{"exec.control_s", func(s *sample) float64 { return s.self[layerJob] }},
	{"exec.fanout_s", func(s *sample) float64 { return s.fanoutS }},
	{"ckpt.policy_s", func(s *sample) float64 { return s.self[layerCkpt] }},
	{"policy.mttf_s", func(s *sample) float64 { return s.self[layerMTTF] }},
	{"policy.select_s", func(s *sample) float64 { return s.self[layerSelect] }},
	{"cluster.events_s", func(s *sample) float64 { return s.self[layerThink] }},
	{"workload.drive_s", func(s *sample) float64 { return s.self[layerWorkload] }},
}

// minCoverage is the share of wall_s the layer parts must account for.
const minCoverage = 0.9

func coverage(s *sample) float64 {
	var sum float64
	for _, p := range parts {
		sum += p.of(s)
	}
	return ratio(sum, s.wallS)
}

func netWallS(s *sample) float64 { return netWall(s.wallS, s.stolenS, s.cpuS) }

// jobNet is the wall time of each job net of steal: the iteration's
// correction, shared out in proportion to the jobs' wall times.
func jobNet(s *sample) []float64 {
	f := ratio(netWallS(s), s.wallS)
	out := make([]float64, len(s.jobReal))
	for i, v := range s.jobReal {
		out[i] = v * f
	}
	return out
}

func jobVirt(s *sample) []float64 { return s.jobVirt }

func pool(ss []*sample, of func(*sample) []float64) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, of(s)...)
	}
	return out
}

func med(of func(*sample) float64) func([]*sample) float64 {
	return func(ss []*sample) float64 { return quantile(values(ss, of), 0.5) }
}

func values(ss []*sample, of func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = of(s)
	}
	return out
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarize turns the iterations into the run's result and prints the
// human-readable report ahead of it.
func summarize(cfg runConfig, warm *sample, timed []*sample) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var on, off []*sample
	for _, s := range timed {
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	if len(off) == 0 || (cfg.traced && len(on) == 0) {
		return res, fmt.Errorf("too few timed iterations: %d untraced, %d traced", len(off), len(on))
	}
	for _, s := range append([]*sample{warm}, timed...) {
		res.Attempted += s.attempted
		res.Failed += s.failed
		for _, f := range s.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: job failed: %s\n", cfg.spec.name, f)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	fmt.Printf("# perfbench workload=%s seed=%d traced=%t nproc=%d gomaxprocs=%d workers=%d go=%s iterations=1+%d\n",
		cfg.spec.name, cfg.seed, cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), warm.workers, runtime.Version(), len(timed))
	fmt.Printf("# steal: median %.6g s per timed region; wall_s as measured: median %.6g s\n",
		med(func(s *sample) float64 { return s.stolenS })(off), med(func(s *sample) float64 { return s.wallS })(off))
	fmt.Printf("# end-to-end, %d untraced iterations: median [p25 p75]\n", len(off))
	for _, m := range endToEnd {
		v := m.value(off)
		fmt.Printf("%-24s %14.6g %-5s [%.6g %.6g]\n", m.name, v, m.unit, quartile(off, m, 0.25), quartile(off, m, 0.75))
		if !cfg.traced {
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	fmt.Printf("%-24s %14.6g %-5s (%d of %d jobs)\n", "failed_ops", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if !cfg.traced {
		return res, nil
	}

	fmt.Printf("# per-layer, %d traced iterations: median\n", len(on))
	for _, m := range perLayer {
		v := m.value(on)
		fmt.Printf("%-24s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metric{v, m.unit}
	}
	wall, untraced := med(netWallS)(on), med(netWallS)(off)
	over := 100 * ratio(wall-untraced, untraced)
	fmt.Printf("%-24s %14.6g %%\n", "obs.overhead_pct", over)
	res.Metrics["obs.overhead_pct"] = metric{over, "%"}

	measured := med(func(s *sample) float64 { return s.wallS })(on)
	fmt.Printf("# layer self time per traced iteration: median, share of the measured wall_s %.6g s\n", measured)
	for _, p := range parts {
		v := med(p.of)(on)
		fmt.Printf("%-24s %14.6g s %6.1f%%\n", p.name, v, 100*ratio(v, measured))
	}
	for _, s := range on {
		if c := coverage(s); c < minCoverage {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: layer parts cover %.1f%% of wall_s, below %.0f%%\n", cfg.spec.name, 100*c, 100*minCoverage)
		}
		if s.dropped > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: the event tracer dropped %d events\n", cfg.spec.name, s.dropped)
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", cfg.spec.name, cfg.seed))
	if err := writeChromeTrace(path, on[len(on)-1].spans); err != nil {
		return res, err
	}
	fmt.Printf("# spans of the last traced iteration: %s\n", path)
	return res, nil
}

// quartile is the p-quantile across iterations of m's value for each
// iteration alone.
func quartile(ss []*sample, m metricDef, p float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = m.value([]*sample{s})
	}
	return quantile(vs, p)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto; each event carries its span id and its
// parent's.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{
			Name: s.name, Cat: layerNames[s.layer], Ph: "X",
			Ts: 1e6 * s.start, Dur: 1e6 * s.dur(), Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

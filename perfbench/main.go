// Command perfbench is Flint's benchmark. It drives the program only
// through its public functions — exec.MustTestbed and core.Launch, the
// workload runners, core.Session — and times each layer from outside by
// wrapping the interfaces the engine calls: the workload.Runner jobs are
// submitted through, the exec.CheckpointPolicy the engine consults and
// the cluster.Selector the node manager asks for servers. It also reads
// the counters and wall-time histograms the program exports through the
// obs bundle it is given. Every job's output is checked against
// rdd.CollectLocal outside the timed region.
//
//	go run . --workload pagerank-revoke --seed 42 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and
// the run also writes a Chrome trace of its spans to --out. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	name := flag.String("workload", "", "workload to run (pagerank-revoke, wordcount-wide, tpch-interactive)")
	seed := flag.Int64("seed", 42, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long to keep iterating, in wall-clock seconds")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the Chrome trace of a traced run")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or --trace %d\n", *name, *traced)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{spec: w, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// engineWorkers is the engine's worker-pool width: two, or fewer on a
// machine with fewer CPUs. It is passed explicitly to every deployment.
func engineWorkers() int {
	return min(2, runtime.NumCPU())
}

package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// takes the CPUs away whenever other tenants want them; Linux counts
// that time as steal. Every wall-clock metric is reported net of the
// steal that accrued during its timed region, so that a busy host does
// not read as a slower program.

// userHZ is the unit of /proc/stat; Linux fixes it at 100 per second.
const userHZ = 100

// stolenSeconds returns the CPU time the hypervisor has taken from this
// machine since boot, summed over its CPUs, or 0 where /proc/stat does
// not report it.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// cpuSeconds returns the user plus system CPU time this process has
// used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// netWall is the wall time of a timed region less the delay steal
// caused. Steal accrues on every CPU the process keeps busy, while the
// region waits as long as one of them is stalled, so the steal is
// divided by the average number of busy CPUs (at least one).
func netWall(wall, stolen, cpu float64) float64 {
	if wall <= 0 {
		return wall
	}
	return max(0, wall-stolen/max(1, cpu/wall))
}

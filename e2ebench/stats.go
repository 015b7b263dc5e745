package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie strictly beyond a
// reported tail percentile for it to mean anything.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples of an n-sample set that lie past the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when even the median
// does not.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// windowSize is the fewest samples in a latency window: the p99 of 1000
// samples has 10 beyond it.
const windowSize = 1000

// windowed cuts xs, in the order the samples were taken, into
// consecutive windows of at least windowSize samples (one window when
// there are fewer), and returns the medians over windows of each
// window's p50 and p99, and the window count. A slow stretch of the host
// then moves the result only if it covers half the windows.
func windowed(xs []float64) (p50, p99 float64, windows int) {
	windows = max(1, len(xs)/windowSize)
	var p50s, p99s []float64
	for w := 0; w < windows; w++ {
		s := sortedCopy(xs[w*len(xs)/windows : (w+1)*len(xs)/windows])
		p50s = append(p50s, percentile(s, 50))
		p99s = append(p99s, percentile(s, 99))
	}
	return median(p50s), median(p99s), windows
}

// setLatencies reports a workload's latency percentiles from its samples
// in the order taken, and checks that every window supports its p99.
func (rc *runCtx) setLatencies(ms []float64) {
	p50, p99, windows := windowed(ms)
	rc.tally.check(tailPercentile(len(ms)/windows) >= 99,
		"%s: %d latency samples leave fewer than %d beyond p99", rc.workload, len(ms), minBeyond)
	rc.set("latency_samples", float64(len(ms)))
	rc.set("latency_windows", float64(windows))
	rc.set("latency_p50_ms", p50)
	rc.set("latency.p99_ms", p99)
}

// setPasses reports a workload's cold and warm passes (grid passes,
// cluster sweeps, serve-open bursts) from their wall and process CPU
// times. trials gives each cold pass's Monte Carlo trials; a single value
// applies to every pass.
//
// trials_per_cpu_s, the end-to-end figure, is the median over cold
// passes of trials per second of process CPU time. The wall-clock
// figures are per-layer metrics: on a shared host a pass of a few
// hundred milliseconds absorbs every stall of either vCPU, and their
// medians spread by more than any allowed bound from run to run, while
// CPU time leaves out the time the host ran something else. All four
// series go into the run record.
func (rc *runCtx) setPasses(cold, warm, coldCPU, warmCPU []float64, trials ...float64) {
	rc.samples["cold_s"], rc.samples["warm_s"] = cold, warm
	rc.samples["cold_cpu_s"], rc.samples["warm_cpu_s"] = coldCPU, warmCPU
	perCPU := make([]float64, len(cold))
	perWall := make([]float64, len(cold))
	for i := range cold {
		t := trials[0]
		if len(trials) > 1 {
			t = trials[i]
		}
		perCPU[i] = t / coldCPU[i]
		perWall[i] = t / cold[i]
	}
	rc.set("trials_per_cpu_s", median(perCPU))
	rc.set("wall.makespan_s", median(cold))
	rc.set("wall.warm_makespan_s", median(warm))
	rc.set("wall.trials_per_s", median(perWall))
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the run did not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

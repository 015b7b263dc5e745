// Command e2ebench is the end-to-end benchmark of memreliability. It
// drives the program from one process through its public package
// functions and loopback HTTP, on one of three workloads:
//
//   - grid: the paper's grid through sweep.Run;
//   - serve-open: an open loop of Poisson arrivals against serve.New;
//   - cluster-fanout: cluster.Coordinator.RunSweep over two workers.
//
// Every input is generated from --seed, every output is checked, and the
// last line of standard output is one JSON object with the run's
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times each workload sets itself up; setup_s is
// the median, and the last environment is the one measured.
const setupReps = 5

// runTimeout bounds a whole run; the benchmark must exit well within
// 180 seconds.
const runTimeout = 170 * time.Second

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
// None of them is the wall time of a pass that takes hundreds of
// milliseconds: on a shared host those spread by more than any allowed
// bound from run to run, and are per-layer metrics (wall.*) of the
// traced run instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_cpu_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"max_rate_rps", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one or more per internal
// package. A workload that does not exercise a layer reports its
// workload-scoped counters as 0. The wall.* metrics and latency.p99_ms
// are the workload's own wall-clock figures: they sit here, not among
// the end-to-end metrics, because on a shared 2-vCPU host they spread
// by more than any allowed bound between runs.
var perLayer = []metricDef{
	{"wall.makespan_s", "s", "lower"},
	{"wall.warm_makespan_s", "s", "lower"},
	{"wall.trials_per_s", "1/s", "higher"},
	{"latency.p99_ms", "ms", "lower"},
	{"rng.fill_ns_per_word", "ns", "lower"},
	{"core.fillbits_ns_per_trial", "ns", "lower"},
	{"core.fillproducts_ns_per_trial", "ns", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.plans_compiled", "count", "lower"},
	{"core.plan_hit_ratio", "ratio", "higher"},
	{"core.exact_ms", "ms", "lower"},
	{"mc.harness_ns_per_trial", "ns", "lower"},
	{"mc.trials", "count", "higher"},
	{"mc.chunks", "count", "lower"},
	{"mc.speedup_bits_2w", "x", "higher"},
	{"mc.speedup_mean_2w", "x", "higher"},
	{"calib.spin_speedup", "x", "higher"},
	{"estimator.overhead_us", "us", "lower"},
	{"estimator.busy_s.exact", "s", "lower"},
	{"estimator.busy_s.mc", "s", "lower"},
	{"estimator.busy_s.hybrid", "s", "lower"},
	{"estimator.busy_s.windowdist", "s", "lower"},
	{"estimator.busy_s.mc-compiled", "s", "lower"},
	{"sweep.cells", "count", "higher"},
	{"sweep.cells_failed", "count", "lower"},
	{"sweep.tail_s", "s", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.disk_ratio", "ratio", "lower"},
	{"serve.dedup", "count", "higher"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.disk_p50_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.inproc_hit_us", "us", "lower"},
	{"serve.inproc_miss_us", "us", "lower"},
	{"http.roundtrip_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.gets", "count", "lower"},
	{"store.get_hits", "count", "higher"},
	{"store.puts", "count", "lower"},
	{"store.put_errors", "count", "lower"},
	{"cluster.dispatches", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.cells_per_dispatch", "count", "higher"},
	{"cluster.dispatch_mean_ms", "ms", "lower"},
	{"cluster.store_dedup", "count", "higher"},
	{"cluster.overhead_ratio", "ratio", "lower"},
	{"serve.p99_ms_at_1440rps", "ms", "lower"},
	{"serve.p99_ms_at_5760rps", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.samples", "count", "higher"},
	{"ladder.core_ms", "ms", "lower"},
	{"ladder.mc_ms", "ms", "lower"},
	{"ladder.estimator_ms", "ms", "lower"},
	{"ladder.serve_inproc_ms", "ms", "lower"},
	{"ladder.serve_http_ms", "ms", "lower"},
	{"ladder.cluster_cell_ms", "ms", "lower"},
	{"ladder.serve_overhead_us", "us", "lower"},
	{"ladder.http_overhead_us", "us", "lower"},
	{"ladder.cluster_overhead_us", "us", "lower"},
	{"trace.overhead_makespan_s", "s", "lower"},
	{"trace.overhead_latency_p50_ms", "ms", "lower"},
}

// runCtx is the state shared by a workload run.
type runCtx struct {
	workload string
	seed     uint64
	budget   time.Duration // measured time of the run
	trace    bool
	workdir  string
	nproc    int
	tally    *tally
	values   map[string]float64   // reported metrics by name
	samples  map[string][]float64 // raw pass times behind the values, for the run record
	root     *span                // the traced run's span tree (nil untraced)
}

// set records a metric value.
func (rc *runCtx) set(name string, v float64) { rc.values[name] = v }

// workloads maps each workload name to its driver. A driver sets itself
// up setupReps times, measures for the run's budget, checks every
// output, and records its metrics in rc.values.
var workloads = map[string]func(rc *runCtx) error{
	"grid":           runGrid,
	"serve-open":     runServe,
	"cluster-fanout": runCluster,
}

func main() {
	workload := flag.String("workload", "", "workload: grid, serve-open or cluster-fanout")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	secs := flag.Int("seconds", 15, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for temporary stores and run records")
	writeDigests := flag.Bool("write-digests", false, "recompute the reference artifact digests into e2ebench/digests.json and exit")
	flag.Parse()

	if *writeDigests {
		if err := writeDigestFile(filepath.Join("e2ebench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload grid|serve-open|cluster-fanout --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded", runTimeout)
		os.Exit(3)
	})
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rc := &runCtx{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*secs) * time.Second,
		trace:    *traceFlag == 1,
		workdir:  *workdir,
		nproc:    runtime.NumCPU(),
		tally:    &tally{},
		values:   map[string]float64{},
		samples:  map[string][]float64{},
	}
	if err := run(rc); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	rc.set("peak_rss_mb", peakRSSMB())
	if rc.trace {
		if err := runLayers(rc); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		rc.root.finish()
		rc.root.writeSummary(os.Stderr)
		writeTrace(rc)
	}
	os.Exit(emit(rc))
}

// metricJSON is one reported value.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the run's result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// emit prints the metrics table to stderr, writes the run record, and
// prints the result line last on stdout. It returns the exit code.
func emit(rc *runCtx) int {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	res := resultJSON{
		Attempted: rc.tally.attempted,
		Failed:    rc.tally.failed,
		Metrics:   map[string]metricJSON{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(os.Stderr, "workload %s seed %d trace %v: %d ops, %d failed (failed_ratio %.4g)\n",
		rc.workload, rc.seed, rc.trace, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range defs {
		v := rc.values[d.name]
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	writeRecord(rc, line)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord keeps the full run (every value, both metric sets) next to
// the build, for later inspection.
func writeRecord(rc *runCtx, line []byte) {
	names := make([]string, 0, len(rc.values))
	for n := range rc.values {
		names = append(names, n)
	}
	sort.Strings(names)
	all := make(map[string]float64, len(names))
	for _, n := range names {
		all[n] = rc.values[n]
	}
	rec, _ := json.MarshalIndent(struct {
		Workload string               `json:"workload"`
		Seed     uint64               `json:"seed"`
		Trace    bool                 `json:"trace"`
		Time     string               `json:"time"`
		NumCPU   int                  `json:"num_cpu"`
		Go       string               `json:"go"`
		Failures []string             `json:"failures,omitempty"`
		Values   map[string]float64   `json:"values"`
		Samples  map[string][]float64 `json:"samples"`
		Result   json.RawMessage      `json:"result"`
	}{rc.workload, rc.seed, rc.trace, time.Now().UTC().Format(time.RFC3339), rc.nproc,
		runtime.Version(), rc.tally.first, all, rc.samples, line}, "", "  ")
	name := fmt.Sprintf("record-%s-seed%d-trace%d.json", rc.workload, rc.seed, map[bool]int{false: 0, true: 1}[rc.trace])
	if err := os.WriteFile(filepath.Join(rc.workdir, name), append(rec, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run record:", err)
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupMedian runs setup setupReps times, closes every environment but
// the last, and returns the last with the median setup time.
func setupMedian[E any](setup func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, median(times), nil
}

// writeTrace writes the traced run's span tree next to the run record.
func writeTrace(rc *runCtx) {
	data, err := json.Marshal(rc.root.export(rc.root.start))
	if err == nil {
		name := fmt.Sprintf("trace-%s-seed%d.json", rc.workload, rc.seed)
		err = os.WriteFile(filepath.Join(rc.workdir, name), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: span tree:", err)
	}
}

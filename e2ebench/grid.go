package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/sweep"
)

// gridTrials is the Monte Carlo budget of every grid cell.
const gridTrials = 8192

// numVariants is the number of input variants the seed selects from.
// Each variant has its own sweep seeds and its own reference digests in
// digests.json, so every artifact the benchmark produces has a digest
// kept with it.
const numVariants = 8

// variantOf maps a workload seed to its input variant.
func variantOf(seed uint64) int { return int(seed % numVariants) }

// variantSeed is the sweep seed of an input variant.
func variantSeed(v int) uint64 { return 0x5eed_0000 + uint64(v)*7919 }

// detPrefix is the prefix length of the deterministic cells. The exact
// DP's cost grows about fivefold per two steps of m and is worst for WO
// (about 350 ms at m=16 against 15 ms at m=12), so m=12 keeps the grid's
// time in the Monte Carlo kernel.
const detPrefix = 12

// gridSpecs returns the paper grid of a variant as two sweeps: the Monte
// Carlo cells (models × n × kinds at m=24) and the deterministic cells
// (exact and windowdist at n=2, m=12) beside Monte Carlo cells of the
// same shape, which the binomial check compares them against.
func gridSpecs(v int, workers int) (mcSpec, detSpec sweep.Spec) {
	mcSpec = sweep.DefaultSpec()
	mcSpec.Models = []string{"SC", "TSO", "PSO", "WO"}
	mcSpec.Threads = []int{2, 4, 8, 16}
	mcSpec.PrefixLens = []int{24}
	mcSpec.Estimators = []sweep.Kind{sweep.CompiledMC, sweep.FullMC, sweep.Hybrid}
	mcSpec.Trials = gridTrials
	mcSpec.Seed = variantSeed(v)
	mcSpec.Workers = workers

	detSpec = mcSpec
	detSpec.Threads = []int{2}
	detSpec.PrefixLens = []int{detPrefix}
	detSpec.Estimators = []sweep.Kind{sweep.Exact, sweep.WindowDist, sweep.CompiledMC, sweep.FullMC}
	return mcSpec, detSpec
}

// specTrials is the number of Monte Carlo trials one run of spec asks
// for.
func specTrials(spec sweep.Spec) int {
	total := 0
	for _, c := range spec.Normalized().Expand() {
		if c.Estimator.NeedsTrials() {
			total += spec.Trials
		}
	}
	return total
}

// digest is the hex SHA-256 of an artifact's encoded bytes.
func digest(a *sweep.Artifact) (string, []byte, error) {
	var buf bytes.Buffer
	if err := a.EncodeJSON(&buf); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), buf.Bytes(), nil
}

// sweepTiming collects one sweep run's cell completion times.
type sweepTiming struct {
	mu    sync.Mutex
	start time.Time
	done  []time.Duration
}

// sink is the sweep.Options.Sink that records completion times.
func (t *sweepTiming) sink(sweep.CellResult) {
	t.mu.Lock()
	t.done = append(t.done, time.Since(t.start))
	t.mu.Unlock()
}

// tail is the time from the first idle worker to the artifact: with w
// workers, once the (n−w+1)-th cell completes, fewer than w cells are
// left and a worker idles.
func (t *sweepTiming) tail(total time.Duration, w int) time.Duration {
	d := append([]time.Duration(nil), t.done...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := len(d) - w
	if i < 0 {
		i = 0
	}
	if len(d) == 0 {
		return total
	}
	return total - d[i]
}

// gridEnv is one set-up grid workload.
type gridEnv struct {
	specs   [2]sweep.Spec
	digests [2]string
	trials  int // Monte Carlo trials per pass
	cells   int // cells per pass

	binomialDone bool // the binomial check runs on the first pass only
}

// setupGrid builds the grid's specs, looks up their reference digests,
// and runs one warm-up pass at an eighth of the trial budget, which also
// compiles every plan.
func setupGrid(rc *runCtx) (*gridEnv, error) {
	v := variantOf(rc.seed)
	mcSpec, detSpec := gridSpecs(v, rc.nproc)
	ref, err := referenceDigests()
	if err != nil {
		return nil, err
	}
	env := &gridEnv{specs: [2]sweep.Spec{mcSpec, detSpec},
		digests: [2]string{ref.GridMC[v], ref.GridDet[v]}}
	for _, s := range env.specs {
		env.trials += specTrials(s)
		env.cells += len(s.Normalized().Expand())
		warm := s
		warm.Trials = s.Trials / 8
		if _, err := sweep.Run(context.Background(), warm, sweep.Options{}); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// pass runs the whole grid once and checks both artifacts against their
// digests. It returns the pass's wall time and the process's CPU time
// over it, both without the checks.
// The sweeps run with per-cell timing on; the timings are the cell
// latencies, and are cleared before the digest, which restores the
// untimed artifact's bytes.
func (env *gridEnv) pass(rc *runCtx, parent *span, r *gridRound) (time.Duration, time.Duration, error) {
	ps := parent.child("grid.pass")
	cpu0 := cpuTime()
	start := time.Now()
	var tail time.Duration
	var arts [2]*sweep.Artifact
	for i, spec := range env.specs {
		ss := ps.child("sweep.run")
		tm := &sweepTiming{start: start}
		a, err := sweep.Run(context.Background(), spec, sweep.Options{Timing: true, Sink: tm.sink})
		ss.finish()
		if err != nil {
			rc.tally.op(fmt.Errorf("grid sweep: %w", err))
			return 0, 0, err
		}
		tail += tm.tail(time.Since(start), spec.Workers)
		arts[i] = a
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	ps.finish()
	r.tails = append(r.tails, tail.Seconds())
	for i, a := range arts {
		for j := range a.Cells {
			r.lat = append(r.lat, a.Cells[j].ElapsedMS)
			a.Cells[j].ElapsedMS = 0
		}
		rc.tally.ops(len(a.Cells))
		sum, _, err := digest(a)
		if err != nil {
			return 0, 0, err
		}
		rc.tally.check(sum == env.digests[i], "grid artifact %d digest %s, want %s", i, sum, env.digests[i])
	}
	if !env.binomialDone {
		env.checkBinomial(rc, arts[1])
		env.binomialDone = true
	}
	return elapsed, cpu, nil
}

// checkBinomial checks the deterministic sweep's Monte Carlo cells
// against its exact cells of the same (model, n, m).
func (env *gridEnv) checkBinomial(rc *runCtx, det *sweep.Artifact) {
	exact := map[string]sweep.CellResult{}
	for _, c := range det.Cells {
		if c.Estimator == sweep.Exact {
			exact[c.Model] = c
		}
	}
	trials := env.specs[1].Trials
	for _, c := range det.Cells {
		if !c.Estimator.NeedsTrials() {
			continue
		}
		e, found := exact[c.Model]
		if !found {
			rc.tally.op(fmt.Errorf("grid: no exact cell for %s", c.Model))
			continue
		}
		k := int(c.Estimate*float64(trials) + 0.5)
		rc.tally.check(binomialConsistent(k, trials, e.Lo, e.Hi),
			"grid: %s %s n=%d: %d/%d successes inconsistent with exact Pr[A] in [%v, %v]",
			c.Estimator, c.Model, c.Threads, k, trials, e.Lo, e.Hi)
	}
}

// flushPlans empties the compiled-plan cache, so the next pass compiles
// every plan again.
func flushPlans() {
	pc := core.DefaultPlanCache()
	pc.SetCap(1)
	pc.SetCap(core.DefaultPlanCacheCap)
}

// gridRound is what one measuring loop of the grid collects.
type gridRound struct {
	cold, warm       []float64 // pass wall times, s
	coldCPU, warmCPU []float64 // process CPU times of the passes, s
	lat              []float64 // cell latencies, ms
	tails            []float64 // sweep tails per pass, s
	passes           int
}

// measure runs cold/warm pass pairs until the budget is spent, and at
// least until the cell latencies fill one window, so that their p99 has
// ten samples beyond it however slow the host is.
func (env *gridEnv) measure(rc *runCtx, budget time.Duration, parent *span) (*gridRound, error) {
	r := &gridRound{}
	deadline := time.Now().Add(budget)
	for len(r.cold) < 2 || len(r.lat) < windowSize || time.Now().Before(deadline) {
		flushPlans()
		d, cpu, err := env.pass(rc, parent, r)
		if err != nil {
			return nil, err
		}
		r.cold = append(r.cold, d.Seconds())
		r.coldCPU = append(r.coldCPU, cpu.Seconds())
		d, cpu, err = env.pass(rc, parent, r)
		if err != nil {
			return nil, err
		}
		r.warm = append(r.warm, d.Seconds())
		r.warmCPU = append(r.warmCPU, cpu.Seconds())
		r.passes += 2
	}
	return r, nil
}

// runGrid is the grid workload driver.
func runGrid(rc *runCtx) error {
	env, setupS, err := setupMedian(func() (*gridEnv, error) { return setupGrid(rc) }, func(*gridEnv) {})
	if err != nil {
		return err
	}
	rc.set("setup_s", setupS)

	budget := rc.budget
	var untraced *gridRound
	if rc.trace {
		budget /= 2
		if untraced, err = env.measure(rc, budget, nil); err != nil {
			return err
		}
		rc.root = newSpan("run")
	}
	before := engineCounters()
	r, err := env.measure(rc, budget, rc.root)
	if err != nil {
		return err
	}
	after := engineCounters()

	rc.setPasses(r.cold, r.warm, r.coldCPU, r.warmCPU, float64(env.trials))
	rc.setLatencies(r.lat)
	// The cell rate the host's CPUs sustain at a warm pass's CPU cost.
	rc.set("max_rate_rps", float64(rc.nproc)*float64(env.cells)/median(r.warmCPU))

	// Reconcile the benchmark's counts with the program's counters.
	wantTrials := float64(r.passes * env.trials)
	gotTrials := delta(before, after, "mc_trials_total")
	rc.tally.check(gotTrials == wantTrials, "grid: mc_trials_total moved %v, want %v", gotTrials, wantTrials)
	wantCells := float64(r.passes * env.cells)
	gotCells := delta(before, after, "sweep_cells_completed_total")
	rc.tally.check(gotCells == wantCells, "grid: sweep_cells_completed_total moved %v, want %v", gotCells, wantCells)

	if rc.trace {
		engineLayerMetrics(rc, before, after)
		rc.set("sweep.tail_s", median(r.tails))
		rc.set("trace.overhead_makespan_s", rc.values["wall.makespan_s"]-median(untraced.cold))
		p50, _, _ := windowed(untraced.lat)
		rc.set("trace.overhead_latency_p50_ms", rc.values["latency_p50_ms"]-p50)
	}
	return nil
}

// engineLayerMetrics sets the per-layer metrics read from the engine
// registry's counters over the traced measurement.
func engineLayerMetrics(rc *runCtx, before, after counters) {
	compiled := delta(before, after, "core_plans_compiled_total")
	hits := delta(before, after, "core_plan_cache_hits_total")
	rc.set("core.plans_compiled", compiled)
	rc.set("core.plan_hit_ratio", ratio(hits, hits+compiled))
	rc.set("mc.trials", delta(before, after, "mc_trials_total"))
	rc.set("mc.chunks", delta(before, after, "mc_chunks_total"))
	for _, k := range estimator.Kinds() {
		rc.set("estimator.busy_s."+string(k),
			delta(before, after, "estimator_query_seconds_sum", `kind="`+string(k)+`"`))
	}
	rc.set("sweep.cells", delta(before, after, "sweep_cells_completed_total"))
	rc.set("sweep.cells_failed", delta(before, after, "sweep_cells_failed_total"))
	rc.set("store.gets", delta(before, after, "store_gets_total"))
	rc.set("store.get_hits", delta(before, after, "store_gets_total", `outcome="hit"`))
	rc.set("store.puts", delta(before, after, "store_puts_total"))
	rc.set("store.put_errors", delta(before, after, "store_put_errors_total"))
	rc.set("cluster.retries", delta(before, after, "cluster_retries_total"))
	rc.set("cluster.store_dedup", delta(before, after, "cluster_store_dedup_total"))
}

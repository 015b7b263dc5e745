package main

import (
	"fmt"
	"os"
	"time"

	"memreliability/internal/serve"
	"memreliability/internal/store"
)

// The serve-open workload's fixed load shape.
const (
	nominalRate  = 480.0 // arrivals per second
	segmentN     = 1000  // arrivals per nominal-rate segment (about 2 s)
	latencyLimit = 250 * time.Millisecond
	stepSeconds  = 0.75 // length of each rate step
	burstSize    = 60   // fresh requests per closed-loop burst
	warmReplays  = 8    // warm replays of each burst, timed as one
)

// stepFactors are the rate steps above the nominal rate, in order. They
// are far apart, so the highest passing step moves only when capacity
// moves by a large factor, not with the host's noise: on a 2-vCPU host
// capacity lies between the two steps.
var stepFactors = []float64{3, 12}

// serveEnv is one set-up serving workload: a server with a fresh store
// on a loopback listener, and a hot set already warmed through it.
type serveEnv struct {
	srv *serve.Server
	ls  *loopbackServer
	dir string
	tg  *target
	gen *keygen
}

// setupServe starts the server and warms the hot set.
func setupServe(rc *runCtx) (*serveEnv, error) {
	dir, err := os.MkdirTemp(rc.workdir, "serve-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	var srv *serve.Server
	if err == nil {
		srv, err = serve.New(serve.Config{Store: st, EstimateWorkers: rc.nproc})
	}
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck
		return nil, err
	}
	ls, err := startLoopback(srv)
	if err != nil {
		srv.Close()
		os.RemoveAll(dir) //nolint:errcheck
		return nil, err
	}
	env := &serveEnv{srv: srv, ls: ls, dir: dir, gen: newKeygen(rc.seed),
		tg: &target{client: clientFor(rc.nproc), base: ls.url, conns: rc.nproc, bodies: newBodies(), tally: rc.tally}}
	outs, _ := env.tg.closedLoop(env.gen.hot, nil)
	for _, o := range outs {
		if o.err != nil {
			env.close()
			return nil, fmt.Errorf("warming the hot set: %w", o.err)
		}
	}
	return env, nil
}

// close stops the server and removes its store.
func (env *serveEnv) close() {
	env.ls.close()
	env.srv.Close()
	env.tg.client.CloseIdleConnections()
	os.RemoveAll(env.dir) //nolint:errcheck
}

// serveRound is what one measuring loop of the serving workload
// collects.
type serveRound struct {
	nominal          []outcome
	maxRate          float64             // throughput at the highest passing rate step
	stepP99          map[float64]float64 // p99 latency (ms) at each rate step run
	cold, warm       []float64           // burst wall times, s
	coldCPU, warmCPU []float64           // process CPU times of the bursts, s
	burstTrials      []float64           // Monte Carlo trials of each burst
	states           map[string]int
	missTrials       int
}

// record tallies the cache states and computed trials of a run.
func (r *serveRound) record(outs []outcome) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		r.states[o.cache]++
		if o.cache == "miss" {
			r.missTrials += o.req.trials
		}
	}
}

// stepVerdict decides whether a rate step met the latency limit without
// a growing backlog, and returns the throughput it achieved. The
// backlog grows when the last quarter of arrivals waits clearly longer
// than the first quarter.
func stepVerdict(outs []outcome, limit time.Duration) (ok bool, achieved float64) {
	if len(outs) < 4 {
		return false, 0
	}
	lats := make([]float64, len(outs))
	var first, last time.Duration
	var lastDone time.Duration
	q := len(outs) / 4
	for i, o := range outs {
		if o.err != nil {
			return false, 0
		}
		lats[i] = float64(o.latency())
		if i < q {
			first += o.latency()
		}
		if i >= len(outs)-q {
			last += o.latency()
		}
		if o.done > lastDone {
			lastDone = o.done
		}
	}
	p99 := percentile(sortedCopy(lats), 99)
	growing := (last-first)/time.Duration(q) > limit/4
	achieved = float64(len(outs)) / (lastDone - outs[0].due).Seconds()
	return p99 <= float64(limit) && !growing, achieved
}

// minSegments is the fewest nominal-rate segments a run makes: two
// latency windows of 1000 samples. Longer runs make one segment per 4 s
// of budget. Each segment is followed by a burst, so every metric
// samples the whole run.
const minSegments = 2

// measure runs the nominal open loop in segments, each followed by a
// closed-loop burst, then the rate steps, then more bursts until the
// budget is spent.
func (env *serveEnv) measure(budget time.Duration, parent *span) *serveRound {
	deadline := time.Now().Add(budget)
	r := &serveRound{states: map[string]int{}, stepP99: map[float64]float64{}}
	segments := max(minSegments, int(budget/(4*time.Second)))
	for i := 0; i < segments; i++ {
		ns := parent.child("serve.nominal")
		outs := env.tg.openLoop(env.gen.schedule(segmentN, nominalRate), ns)
		ns.finish()
		r.record(outs)
		r.nominal = append(r.nominal, outs...)
		env.burst(r, parent)
	}
	// The nominal rate is the first step; each higher step runs only if
	// every lower one passed.
	ok, achieved := stepVerdict(r.nominal[:segmentN], latencyLimit)
	for _, f := range stepFactors {
		if !ok {
			break
		}
		r.maxRate = achieved
		rate := nominalRate * f
		ss := parent.child("serve.step")
		outs := env.tg.openLoop(env.gen.schedule(int(rate*stepSeconds), rate), ss)
		ss.finish()
		r.record(outs)
		ok, achieved = stepVerdict(outs, latencyLimit)
		r.stepP99[rate] = percentile(sortedCopy(latencies(outs, "")), 99)
		fmt.Fprintf(os.Stderr, "rate step %.0f/s: %d requests, p99 %.3g ms, achieved %.4g/s, passed %v\n",
			rate, len(outs), r.stepP99[rate], achieved, ok)
	}
	if ok {
		r.maxRate = achieved
	}
	for time.Now().Before(deadline) {
		env.burst(r, parent)
	}
	return r
}

// burst sends a batch of fresh requests as fast as the connections
// allow (cold: every request computes and writes through), then the
// same batch warmReplays times over (warm: every request hits).
func (env *serveEnv) burst(r *serveRound, parent *span) {
	batch := env.gen.batch(burstSize)
	trials := 0
	for _, q := range batch {
		trials += q.trials
	}
	r.burstTrials = append(r.burstTrials, float64(trials))
	bs := parent.child("serve.burst_cold")
	cpu0 := cpuTime()
	outs, d := env.tg.closedLoop(batch, bs)
	r.coldCPU = append(r.coldCPU, (cpuTime() - cpu0).Seconds())
	bs.finish()
	r.record(outs)
	r.cold = append(r.cold, d.Seconds())
	var replays []*request
	for k := 0; k < warmReplays; k++ {
		replays = append(replays, batch...)
	}
	ws := parent.child("serve.burst_warm")
	cpu0 = cpuTime()
	outs, d = env.tg.closedLoop(replays, ws)
	r.warmCPU = append(r.warmCPU, (cpuTime() - cpu0).Seconds())
	ws.finish()
	r.record(outs)
	r.warm = append(r.warm, d.Seconds())
}

// stepMetric names the per-layer metric of a rate step's p99 latency.
func stepMetric(rate float64) string { return fmt.Sprintf("serve.p99_ms_at_%.0frps", rate) }

// latencies returns the latencies (ms) of the outcomes in a cache state
// ("" for all), in arrival order.
func latencies(outs []outcome, state string) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err == nil && (state == "" || o.cache == state) {
			xs = append(xs, float64(o.latency())/float64(time.Millisecond))
		}
	}
	return xs
}

// runServe is the serve-open workload driver.
func runServe(rc *runCtx) error {
	env, setupS, err := setupMedian(func() (*serveEnv, error) { return setupServe(rc) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	rc.set("setup_s", setupS)

	budget := rc.budget
	var untraced *serveRound
	if rc.trace {
		budget /= 2
		untraced = env.measure(budget, nil)
		rc.root = newSpan("run")
	}
	promURL := env.ls.url + "/metrics/prom"
	srvBefore, err := fetchCounters(env.tg.client, promURL)
	if err != nil {
		return err
	}
	before := engineCounters()
	r := env.measure(budget, rc.root)
	after := engineCounters()
	srvAfter, err := fetchCounters(env.tg.client, promURL)
	if err != nil {
		return err
	}

	rc.setPasses(r.cold, r.warm, r.coldCPU, r.warmCPU, r.burstTrials...)
	rc.setLatencies(latencies(r.nominal, ""))
	rc.set("max_rate_rps", r.maxRate)

	// Reconcile: the X-Cache states the client saw are the server's
	// cache events, and the trials of the misses are the trials the
	// engine ran.
	for _, state := range []string{"hit", "miss", "disk", "dedup"} {
		got := delta(srvBefore, srvAfter, "serve_cache_events_total", `state="`+state+`"`)
		rc.tally.check(got == float64(r.states[state]),
			"serve: serve_cache_events_total{state=%q} moved %v, client saw %d", state, got, r.states[state])
	}
	gotTrials := delta(before, after, "mc_trials_total")
	rc.tally.check(gotTrials == float64(r.missTrials), "serve: mc_trials_total moved %v, misses asked for %d", gotTrials, r.missTrials)

	if rc.trace {
		engineLayerMetrics(rc, before, after)
		n := float64(len(r.nominal))
		counts := map[string]int{}
		var late []float64
		for _, o := range r.nominal {
			counts[o.cache]++
			late = append(late, float64(o.late())/float64(time.Millisecond))
		}
		rc.set("serve.hit_ratio", float64(counts["hit"])/n)
		rc.set("serve.disk_ratio", float64(counts["disk"])/n)
		rc.set("serve.dedup", float64(r.states["dedup"]))
		for _, state := range []string{"hit", "disk", "miss"} {
			if xs := latencies(r.nominal, state); len(xs) > 0 {
				rc.set("serve."+state+"_p50_ms", median(xs))
			}
		}
		rc.set("loadgen.late_p99_ms", percentile(sortedCopy(late), 99))
		rc.set("loadgen.samples", n)
		for _, f := range stepFactors {
			rc.set(stepMetric(nominalRate*f), r.stepP99[nominalRate*f])
		}
		rc.set("trace.overhead_makespan_s", rc.values["wall.makespan_s"]-median(untraced.cold))
		p50, _, _ := windowed(latencies(untraced.nominal, ""))
		rc.set("trace.overhead_latency_p50_ms", rc.values["latency_p50_ms"]-p50)
	}
	return nil
}

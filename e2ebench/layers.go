package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"memreliability/internal/cluster"
	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
	"memreliability/internal/serve"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// The canonical query: TSO, n=2, m=24, 16k trials.
const (
	canonModel  = "TSO"
	canonN      = 2
	canonM      = 24
	canonTrials = 16384
	chunk       = 8192 // the mc harness's trials per chunk
)

// ladderRounds is how many times each ladder rung runs; rungs take
// turns, so slow moments of the host spread over all of them.
const ladderRounds = 15

// canonConfig is the canonical query's core configuration.
func canonConfig() core.Config {
	model, err := memmodel.ByName(canonModel)
	if err != nil {
		panic(err)
	}
	return core.Config{Model: model, Threads: canonN, PrefixLen: canonM, StoreProb: 0.5, SwapProb: 0.5}
}

// canonQuery is the canonical query on a seed.
func canonQuery(seed uint64) estimator.Query {
	return estimator.Query{Kind: estimator.CompiledMC, Model: canonModel, Threads: canonN,
		PrefixLen: canonM, StoreProb: 0.5, SwapProb: 0.5, Trials: canonTrials, Seed: seed}
}

// timed runs f inside a span and returns its wall time.
func timed(parent *span, name string, f func() error) (time.Duration, error) {
	sp := parent.child(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.finish()
	return d, err
}

// medianMS is the median of durations in milliseconds.
func medianMS(ds []time.Duration) float64 { return median(seconds(ds)) * 1e3 }

// ladderEnv holds the servers the ladder's outer rungs call.
type ladderEnv struct {
	inproc  *serve.Server
	srv     *serve.Server
	ls      *loopbackServer
	worker  *loopbackServer
	client  *http.Client
	coord   *cluster.Coordinator
	nextKey uint64
}

func newLadderEnv() (*ladderEnv, error) {
	env := &ladderEnv{client: clientFor(1), nextKey: 1 << 40}
	var err error
	if env.inproc, err = serve.New(serve.Config{EstimateWorkers: 1}); err != nil {
		return nil, err
	}
	if env.srv, err = serve.New(serve.Config{EstimateWorkers: 1}); err != nil {
		return nil, err
	}
	if env.ls, err = startLoopback(env.srv); err != nil {
		return nil, err
	}
	if env.worker, err = startLoopback(cluster.NewWorker(cluster.WorkerConfig{Workers: 1})); err != nil {
		return nil, err
	}
	env.coord, err = cluster.New(cluster.Config{Workers: []string{env.worker.url}, Client: env.client})
	return env, err
}

func (env *ladderEnv) close() {
	env.ls.close()
	env.worker.close()
	env.srv.Close()
	env.inproc.Close()
	env.client.CloseIdleConnections()
}

// fresh returns a seed no rung has used yet, so every miss rung misses.
func (env *ladderEnv) fresh() uint64 {
	env.nextKey++
	return env.nextKey
}

// canonBody is the canonical query as a /v1/estimate body.
func canonBody(seed uint64) []byte {
	return estimateReq("mc-compiled", canonModel, canonN, canonM, canonTrials, seed, 0.5).body
}

// post sends a body to the loopback server and checks the response.
func (env *ladderEnv) post(body []byte, wantCache string) error {
	resp, err := env.client.Post(env.ls.url+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := httpOutcome(err, resp.StatusCode, got, nil); err != nil {
		return err
	}
	if got := resp.Header.Get("X-Cache"); got != wantCache {
		return fmt.Errorf("X-Cache %q, want %q", got, wantCache)
	}
	return nil
}

// inprocess serves a body through ServeHTTP on a recorder.
func (env *ladderEnv) inprocess(body []byte, wantCache string) error {
	rec := httptest.NewRecorder()
	env.inproc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
	if err := httpOutcome(nil, rec.Code, rec.Body.Bytes(), nil); err != nil {
		return err
	}
	if got := rec.Header().Get("X-Cache"); got != wantCache {
		return fmt.Errorf("X-Cache %q, want %q", got, wantCache)
	}
	return nil
}

// runLadder measures the canonical query at every rung, from the
// compiled kernel out to one cluster cell, and derives each layer's
// overhead as the difference of adjacent rungs.
func runLadder(rc *runCtx, parent *span) error {
	env, err := newLadderEnv()
	if err != nil {
		return err
	}
	defer env.close()
	cfg := canonConfig()
	prog, err := core.DefaultPlanCache().Lookup(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	words := make([]uint64, mc.BitWords(chunk))
	rungs := []struct {
		name string
		f    func(seed uint64) error
	}{
		{"ladder.core", func(seed uint64) error {
			src := rng.New(seed)
			for done := 0; done < canonTrials; done += chunk {
				if err := prog.FillBits(src, words, chunk); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ladder.mc", func(seed uint64) error {
			_, err := mc.EstimateProbabilityBits(ctx, mc.Config{Trials: canonTrials, Workers: 1, Seed: seed}, prog.FillBits)
			return err
		}},
		{"ladder.estimator", func(seed uint64) error {
			_, err := estimator.EstimateExec(ctx, canonQuery(seed), estimator.Exec{Workers: 1})
			return err
		}},
		{"ladder.serve_inproc_miss", func(uint64) error { return env.inprocess(canonBody(env.fresh()), "miss") }},
		{"ladder.serve_inproc_hit", func(uint64) error { return env.inprocess(canonBody(1), "hit") }},
		{"ladder.serve_http_miss", func(uint64) error { return env.post(canonBody(env.fresh()), "miss") }},
		{"ladder.cluster_cell", func(uint64) error {
			spec := sweep.DefaultSpec()
			spec.Models, spec.Threads, spec.PrefixLens = []string{canonModel}, []int{canonN}, []int{canonM}
			spec.Estimators, spec.Trials, spec.Seed, spec.Workers = []sweep.Kind{sweep.CompiledMC}, canonTrials, env.fresh(), 1
			_, err := env.coord.RunSweep(ctx, spec, sweep.Options{})
			return err
		}},
	}
	// Prime the hit rung's key.
	if err := env.inprocess(canonBody(1), "miss"); err != nil {
		return err
	}
	times := make([][]time.Duration, len(rungs))
	for round := 0; round < ladderRounds; round++ {
		seed := uint64(round + 1)
		for i, r := range rungs {
			d, err := timed(parent, r.name, func() error { return r.f(seed) })
			rc.tally.op(err)
			times[i] = append(times[i], d)
		}
	}
	ms := func(i int) float64 { return medianMS(times[i]) }
	// A layer's overhead is the median, over rounds, of the difference
	// between its rung and the rung below it in the same round.
	overheadUS := func(outer, inner int) float64 {
		ds := make([]float64, ladderRounds)
		for r := range ds {
			ds[r] = (times[outer][r] - times[inner][r]).Seconds() * 1e6
		}
		return median(ds)
	}
	const core_, mc_, est, inMiss, inHit, httpMiss, cell = 0, 1, 2, 3, 4, 5, 6
	rc.set("ladder.core_ms", ms(core_))
	rc.set("ladder.mc_ms", ms(mc_))
	rc.set("ladder.estimator_ms", ms(est))
	rc.set("ladder.serve_inproc_ms", ms(inMiss))
	rc.set("ladder.serve_http_ms", ms(httpMiss))
	rc.set("ladder.cluster_cell_ms", ms(cell))
	rc.set("core.fillbits_ns_per_trial", ms(core_)*1e6/canonTrials)
	rc.set("mc.harness_ns_per_trial", overheadUS(mc_, core_)*1e3/canonTrials)
	rc.set("estimator.overhead_us", overheadUS(est, mc_))
	rc.set("serve.inproc_miss_us", ms(inMiss)*1e3)
	rc.set("serve.inproc_hit_us", ms(inHit)*1e3)
	rc.set("ladder.serve_overhead_us", overheadUS(inMiss, est))
	rc.set("ladder.http_overhead_us", overheadUS(httpMiss, inMiss))
	rc.set("ladder.cluster_overhead_us", overheadUS(cell, httpMiss))

	// The mc and estimator rungs must agree bit for bit on one seed:
	// the estimator derives its substream seed from the query seed.
	q := canonQuery(7)
	viaEst, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 1})
	if err != nil {
		return err
	}
	viaMC, err := mc.EstimateProbabilityBits(ctx, mc.Config{Trials: canonTrials, Workers: 1,
		Seed: estimator.DeriveSeeds(q.Seed, 1)[0]}, prog.FillBits)
	if err != nil {
		return err
	}
	rc.tally.check(viaMC.Estimate() == viaEst.Estimate,
		"ladder: mc rung estimate %v differs from estimator rung %v", viaMC.Estimate(), viaEst.Estimate)

	// One loopback round trip with no work behind it.
	var rts []time.Duration
	for i := 0; i < 200; i++ {
		d, err := timed(parent, "http.healthz", func() error {
			resp, err := env.client.Get(env.ls.url + "/healthz")
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			return httpOutcome(err, resp.StatusCode, body, nil)
		})
		rc.tally.op(err)
		rts = append(rts, d)
	}
	rc.set("http.roundtrip_us", medianMS(rts)*1e3)
	return nil
}

// runMicro measures the layers the ladder does not isolate: the RNG
// fill, the product kernel, plan compilation, the exact DP and the
// store.
func runMicro(rc *runCtx, parent *span) error {
	cfg := canonConfig()
	repeat := func(name string, n int, f func() error) ([]time.Duration, error) {
		var ds []time.Duration
		for i := 0; i < n; i++ {
			d, err := timed(parent, name, f)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
		return ds, nil
	}

	buf := make([]uint64, chunk)
	src := rng.New(1)
	ds, err := repeat("rng.fill", 50, func() error { src.FillUint64s(buf); return nil })
	if err != nil {
		return err
	}
	rc.set("rng.fill_ns_per_word", medianMS(ds)*1e6/chunk)

	products, err := cfg.ProductBatch()
	if err != nil {
		return err
	}
	out := make([]float64, chunk)
	ds, err = repeat("core.fillproducts", 15, func() error { return products(src, out) })
	if err != nil {
		return err
	}
	rc.set("core.fillproducts_ns_per_trial", medianMS(ds)*1e6/chunk)

	ds, err = repeat("core.compile", 20, func() error {
		ir, err := cfg.BuildIR()
		if err != nil {
			return err
		}
		_, err = ir.Compile()
		return err
	})
	if err != nil {
		return err
	}
	rc.set("core.compile_ms", medianMS(ds))

	exactCfg := cfg
	exactCfg.PrefixLen = estimator.ExactPrefixCap
	ds, err = repeat("core.exact", 5, func() error { _, err := core.ExactTwoThreadPrA(exactCfg); return err })
	if err != nil {
		return err
	}
	rc.set("core.exact_ms", medianMS(ds))

	dir, err := os.MkdirTemp(rc.workdir, "micro-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 48) // about one estimate body
	var puts, gets []time.Duration
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("micro-%d", i)
		d, err := timed(parent, "store.put", func() error { return st.Put(key, payload) })
		if err != nil {
			return err
		}
		puts = append(puts, d)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("micro-%d", i)
		var got []byte
		var ok bool
		d, _ := timed(parent, "store.get", func() error { got, ok = st.Get(key); return nil })
		rc.tally.check(ok && bytes.Equal(got, payload), "store: %s read back wrong", key)
		gets = append(gets, d)
	}
	rc.set("store.put_us", medianMS(puts)*1e3)
	rc.set("store.get_us", medianMS(gets)*1e3)
	return nil
}

// spinSink keeps the calibration loop from being optimized away.
var spinSink uint64

// spin is a trivially parallel CPU loop.
func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// parallel runs f on w goroutines at once and returns the wall time.
func parallel(w int, f func()) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runScaling measures the host's own parallel speed-up (a spin loop
// that shares nothing) and the Monte Carlo harness's speed-up from one
// to two workers on both trial contracts, at the canonical query.
func runScaling(rc *runCtx, parent *span) error {
	const spinN = 20_000_000
	var spins []float64
	for i := 0; i < 5; i++ {
		sp := parent.child("calib.spin")
		t1 := parallel(1, func() { spinSink += spin(spinN) })
		var mu sync.Mutex
		t2 := parallel(2, func() {
			x := spin(spinN)
			mu.Lock()
			spinSink += x
			mu.Unlock()
		})
		sp.finish()
		spins = append(spins, 2*t1.Seconds()/t2.Seconds())
	}
	rc.set("calib.spin_speedup", median(spins))

	cfg := canonConfig()
	ctx := context.Background()
	const trials = 65536
	speedup := func(name string, run func(workers int) error) (float64, error) {
		var t1, t2 []time.Duration
		for i := 0; i < 5; i++ {
			d, err := timed(parent, name+".1w", func() error { return run(1) })
			if err != nil {
				return 0, err
			}
			t1 = append(t1, d)
			d, err = timed(parent, name+".2w", func() error { return run(2) })
			if err != nil {
				return 0, err
			}
			t2 = append(t2, d)
		}
		return medianMS(t1) / medianMS(t2), nil
	}
	bits, err := speedup("mc.bits", func(w int) error {
		_, err := core.EstimateNoBugProbCompiled(ctx, cfg, mc.Config{Trials: trials, Workers: w, Seed: 3})
		return err
	})
	if err != nil {
		return err
	}
	mean, err := speedup("mc.mean", func(w int) error {
		_, err := core.EstimateProductExpectation(ctx, cfg, mc.Config{Trials: trials, Workers: w, Seed: 3})
		return err
	})
	if err != nil {
		return err
	}
	rc.set("mc.speedup_bits_2w", bits)
	rc.set("mc.speedup_mean_2w", mean)
	return nil
}

// runLayers is the traced run's layer section: the ladder, the micro
// measurements and the scaling calibration, after the workload.
func runLayers(rc *runCtx) error {
	ls := rc.root.child("layers")
	defer ls.finish()
	if err := runLadder(rc, ls); err != nil {
		return err
	}
	if err := runMicro(rc, ls); err != nil {
		return err
	}
	return runScaling(rc, ls)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"memreliability/internal/cluster"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// clusterTrials is the Monte Carlo budget of every fan-out cell: small,
// so dispatch, plan compilation and the store dominate.
const clusterTrials = 1024

// clusterWorkers is the fleet size of the fan-out workload.
const clusterWorkers = 2

// clusterBatch is the cells per dispatch. A batch is consecutive cells
// of one worker's shard, and shards follow the cells' content hashes, so
// with batches of several cells which costly cells share a batch, and
// with it the dispatch latency tail, would change from seed to seed.
const clusterBatch = 1

// clusterSpec is the fan-out grid of a variant: many small mc-compiled
// cells, each its own (model, n, m) plan. There are more plans than the
// plan cache holds, so every cold pass compiles its plans again. Cheap
// and costly thread counts and prefix lengths alternate, so a dispatch
// batch (consecutive cells of one worker's shard) mixes both, and no
// variant gets a batch of only the costliest cells.
func clusterSpec(v int, workers int) sweep.Spec {
	s := sweep.DefaultSpec()
	s.Models = []string{"SC", "TSO", "PSO", "WO"}
	s.Threads = []int{2, 8, 3, 6, 4, 5}
	s.PrefixLens = []int{8, 32, 12, 28, 16, 24, 20}
	s.Estimators = []sweep.Kind{sweep.CompiledMC}
	s.Trials = clusterTrials
	s.Seed = variantSeed(v) ^ 0xc1c1
	s.Workers = workers
	return s
}

// cellCounter wraps a worker handler and counts what reaches it: batch
// requests and the cells they carry. In a traced run it also records a
// span per batch under the current pass span.
type cellCounter struct {
	next http.Handler

	mu      sync.Mutex
	batches int
	cells   int
	parent  *span
}

func (cc *cellCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/cells" {
		cc.next.ServeHTTP(w, r)
		return
	}
	cc.mu.Lock()
	sp := cc.parent.child("worker.cells")
	cc.mu.Unlock()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req struct {
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &req); err == nil {
		cc.mu.Lock()
		cc.batches++
		cc.cells += len(req.Cells)
		cc.mu.Unlock()
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cc.next.ServeHTTP(w, r)
	sp.finish()
}

// setParent points batch spans at the current pass span.
func (cc *cellCounter) setParent(s *span) {
	cc.mu.Lock()
	cc.parent = s
	cc.mu.Unlock()
}

// counts returns the batches and cells seen so far.
func (cc *cellCounter) counts() (batches, cells int) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.batches, cc.cells
}

// loopbackServer serves h on a fresh loopback port.
type loopbackServer struct {
	srv *http.Server
	url string
	wg  sync.WaitGroup
}

// startLoopback starts serving h on 127.0.0.1.
func startLoopback(h http.Handler) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &loopbackServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		ls.srv.Serve(ln) //nolint:errcheck
	}()
	return ls, nil
}

// close shuts the server down and waits for its serve loop.
func (ls *loopbackServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.srv.Shutdown(ctx) //nolint:errcheck
	ls.wg.Wait()
}

// timedTransport records the round-trip time of every request while
// recording is on: for a worker dispatch, the request is written, the
// worker computes the whole batch, and the response comes back.
type timedTransport struct {
	next http.RoundTripper

	mu        sync.Mutex
	recording bool
	ms        []float64
}

func (tt *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.next.RoundTrip(r)
	d := time.Since(start)
	tt.mu.Lock()
	if tt.recording {
		tt.ms = append(tt.ms, float64(d)/float64(time.Millisecond))
	}
	tt.mu.Unlock()
	return resp, err
}

// record turns recording on or off.
func (tt *timedTransport) record(on bool) {
	tt.mu.Lock()
	tt.recording = on
	tt.mu.Unlock()
}

// take returns the recorded round trips and forgets them.
func (tt *timedTransport) take() []float64 {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	ms := tt.ms
	tt.ms = nil
	return ms
}

// clientFor returns an HTTP client holding at most conns connections
// per host.
func clientFor(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}
}

// clusterEnv is one set-up fan-out workload.
type clusterEnv struct {
	spec    sweep.Spec
	ref     []byte // sweep.Run artifact bytes of spec
	workers []*loopbackServer
	counter *cellCounter
	client  *http.Client
	timing  *timedTransport
	store   *store.Store
	cells   int
}

// setupCluster starts the worker fleet on loopback, computes the
// reference artifact with in-process sweep.Run, checking it against its
// kept digest, and opens a fresh store.
func setupCluster(rc *runCtx) (*clusterEnv, error) {
	v := variantOf(rc.seed)
	ref, err := referenceDigests()
	if err != nil {
		return nil, err
	}
	env := &clusterEnv{spec: clusterSpec(v, rc.nproc), client: clientFor(1)}
	env.timing = &timedTransport{next: env.client.Transport}
	env.client.Transport = env.timing
	env.counter = &cellCounter{next: cluster.NewWorker(cluster.WorkerConfig{Workers: 1})}
	for i := 0; i < clusterWorkers; i++ {
		ls, err := startLoopback(env.counter)
		if err != nil {
			env.close()
			return nil, err
		}
		env.workers = append(env.workers, ls)
	}
	a, err := sweep.Run(context.Background(), env.spec, sweep.Options{})
	if err != nil {
		env.close()
		return nil, err
	}
	sum, data, err := digest(a)
	if err != nil {
		env.close()
		return nil, err
	}
	rc.tally.check(sum == ref.Cluster[v], "cluster reference digest %s, want %s", sum, ref.Cluster[v])
	env.ref, env.cells = data, len(a.Cells)

	dir, err := os.MkdirTemp(rc.workdir, "cluster-store-")
	if err == nil {
		env.store, err = store.Open(dir)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warmUp runs one distributed pass into the fresh store before anything
// is timed. It creates the store's directories, so that every measured
// cold pass finds them, as in a store that has been running a while. It
// is not part of setup_s: creating a few hundred directories and syncing
// a record into each is disk work whose time swung threefold from run
// to run on a shared host.
func (env *clusterEnv) warmUp(rc *runCtx) error {
	co, err := cluster.New(cluster.Config{Workers: env.urls(), Store: env.store, Client: env.client, MaxBatch: clusterBatch})
	if err != nil {
		return err
	}
	_, err = env.run(rc, co, "cluster.warmup", nil)
	return err
}

// close stops the fleet and removes the store.
func (env *clusterEnv) close() {
	for _, w := range env.workers {
		w.close()
	}
	env.client.CloseIdleConnections()
	if env.store != nil {
		os.RemoveAll(env.store.Dir()) //nolint:errcheck
	}
}

// clusterRound is what one measuring loop of the fan-out collects.
type clusterRound struct {
	cold, warm       []float64 // pass wall times, s
	coldCPU, warmCPU []float64 // process CPU times of the passes, s
	lat              []float64 // cold dispatch round trips, ms
	tails            []float64
	pairs            int
}

// clusterPass is the timing of one distributed sweep.
type clusterPass struct {
	wall, cpu, tail time.Duration
}

// run executes one distributed sweep and checks its artifact against
// the sweep.Run reference. The times it returns exclude the check.
func (env *clusterEnv) run(rc *runCtx, co *cluster.Coordinator, name string, parent *span) (clusterPass, error) {
	ps := parent.child(name)
	env.counter.setParent(ps)
	cpu0 := cpuTime()
	tm := &sweepTiming{start: time.Now()}
	a, err := co.RunSweep(context.Background(), env.spec, sweep.Options{Sink: tm.sink})
	p := clusterPass{wall: time.Since(tm.start), cpu: cpuTime() - cpu0}
	ps.finish()
	env.counter.setParent(nil)
	if err != nil {
		rc.tally.op(fmt.Errorf("cluster %s: %w", name, err))
		return p, err
	}
	_, data, err := digest(a)
	if err != nil {
		return p, err
	}
	rc.tally.ops(len(a.Cells))
	rc.tally.check(bytes.Equal(data, env.ref), "cluster %s artifact differs from sweep.Run", name)
	p.tail = tm.tail(p.wall, clusterWorkers)
	return p, nil
}

// measure runs cold/warm pairs until the budget is spent (at least two
// pairs). Every cold pass starts from an empty store: the store's
// records are removed, its directories kept, as in a store that has been
// running for a while.
func (env *clusterEnv) measure(rc *runCtx, budget time.Duration, parent *span) (*clusterRound, error) {
	r := &clusterRound{}
	co, err := cluster.New(cluster.Config{Workers: env.urls(), Store: env.store, Client: env.client, MaxBatch: clusterBatch})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(budget)
	env.timing.take()
	for r.pairs < 2 || time.Now().Before(deadline) {
		if err := removeRecords(env.store.Dir()); err != nil {
			return nil, err
		}
		env.timing.record(true)
		cold, err := env.run(rc, co, "cluster.cold", parent)
		env.timing.record(false)
		if err != nil {
			return nil, err
		}
		warm, err := env.run(rc, co, "cluster.warm", parent)
		if err != nil {
			return nil, err
		}
		r.cold = append(r.cold, cold.wall.Seconds())
		r.coldCPU = append(r.coldCPU, cold.cpu.Seconds())
		r.warm = append(r.warm, warm.wall.Seconds())
		r.warmCPU = append(r.warmCPU, warm.cpu.Seconds())
		r.tails = append(r.tails, cold.tail.Seconds())
		r.pairs++
	}
	r.lat = env.timing.take()
	return r, nil
}

// urls are the workers' base URLs.
func (env *clusterEnv) urls() []string {
	urls := make([]string, len(env.workers))
	for i, w := range env.workers {
		urls[i] = w.url
	}
	return urls
}

// removeRecords deletes every file under dir and keeps the directories.
func removeRecords(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Remove(path)
	})
}

// runCluster is the cluster-fanout workload driver.
func runCluster(rc *runCtx) error {
	env, setupS, err := setupMedian(func() (*clusterEnv, error) { return setupCluster(rc) }, (*clusterEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	rc.set("setup_s", setupS)
	if err := env.warmUp(rc); err != nil {
		return err
	}

	budget := rc.budget
	var untraced *clusterRound
	if rc.trace {
		budget /= 2
		if untraced, err = env.measure(rc, budget, nil); err != nil {
			return err
		}
		rc.root = newSpan("run")
	}
	b0, c0 := env.counter.counts()
	before := engineCounters()
	r, err := env.measure(rc, budget, rc.root)
	if err != nil {
		return err
	}
	after := engineCounters()
	b1, c1 := env.counter.counts()

	rc.setPasses(r.cold, r.warm, r.coldCPU, r.warmCPU, float64(env.cells*clusterTrials))
	rc.setLatencies(r.lat)
	// The cell rate the host's CPUs sustain at a warm pass's CPU cost,
	// every cell a store hit.
	rc.set("max_rate_rps", float64(rc.nproc)*float64(env.cells)/median(r.warmCPU))
	makespan := rc.values["wall.makespan_s"]

	// Reconcile: every cell of every pass was either computed by a
	// worker or served from the store, and the workers computed exactly
	// the cells the benchmark saw them receive.
	dispatched := float64(c1 - c0)
	workerCells := delta(before, after, "cluster_worker_cells_total")
	dedup := delta(before, after, "cluster_store_dedup_total")
	rc.tally.check(workerCells == dispatched, "cluster: cluster_worker_cells_total moved %v, workers received %v cells", workerCells, dispatched)
	want := float64(2 * r.pairs * env.cells)
	rc.tally.check(workerCells+dedup == want, "cluster: worker cells %v + store dedup %v, want %v", workerCells, dedup, want)
	gotTrials := delta(before, after, "mc_trials_total")
	rc.tally.check(gotTrials == dispatched*clusterTrials, "cluster: mc_trials_total moved %v, want %v", gotTrials, dispatched*clusterTrials)

	if rc.trace {
		engineLayerMetrics(rc, before, after)
		batches := float64(b1 - b0)
		rc.set("cluster.dispatches", batches)
		rc.set("cluster.cells_per_dispatch", ratio(dispatched, batches))
		rc.set("cluster.dispatch_mean_ms", 1000*ratio(
			delta(before, after, "cluster_dispatch_seconds_sum"),
			delta(before, after, "cluster_dispatch_seconds_count")))
		rc.set("sweep.tail_s", median(r.tails))
		single, err := env.sweepRunMedian()
		if err != nil {
			return err
		}
		rc.set("cluster.overhead_ratio", makespan/single)
		rc.set("trace.overhead_makespan_s", makespan-median(untraced.cold))
		p50, _, _ := windowed(untraced.lat)
		rc.set("trace.overhead_latency_p50_ms", rc.values["latency_p50_ms"]-p50)
	}
	return nil
}

// sweepRunMedian times in-process sweep.Run of the fan-out spec (the
// denominator of cluster.overhead_ratio), with the plan cache flushed
// first as a cold distributed pass has it.
func (env *clusterEnv) sweepRunMedian() (float64, error) {
	var ts []float64
	for i := 0; i < 5; i++ {
		flushPlans()
		start := time.Now()
		if _, err := sweep.Run(context.Background(), env.spec, sweep.Options{}); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}

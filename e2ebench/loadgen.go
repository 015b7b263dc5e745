package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// request is one generated API request. Its key (path plus body bytes)
// identifies the result: every response for a key must carry the same
// bytes, whatever its cache state.
type request struct {
	path   string
	body   []byte
	trials int // Monte Carlo trials the request asks for (0: deterministic kind)
}

func (r *request) key() string { return r.path + " " + string(r.body) }

// arrival is one request of an open-loop schedule, due at an offset
// from the schedule's start.
type arrival struct {
	due time.Duration
	req *request
}

// Request shapes of the serve-open workload.
const (
	hotSetSize   = 1400 // larger than serve's default 1024-entry LRU
	hotTrials    = 1024
	freshTrials  = 16384 // mc-compiled misses: the canonical query size
	hybridTrials = 4096
	zipfS        = 1.0
)

var serveModels = []string{"SC", "TSO", "PSO", "WO"}

// keygen generates requests deterministically from a seed. Fresh keys
// carry a seed or a probability no other request of the run uses.
type keygen struct {
	rng   *rand.Rand
	base  uint64
	fresh int

	hot        []*request // the hot set, warmed during set-up
	popularity []int      // hot-set index of each Zipf rank
	zipf       *zipf
}

func newKeygen(seed uint64) *keygen {
	g := &keygen{rng: rand.New(rand.NewPCG(seed, 0x0e2eb)), base: seed<<20 ^ 0x9e3779b97f4a7c15}
	g.hot = make([]*request, hotSetSize)
	for i := range g.hot {
		g.hot[i] = estimateReq("mc-compiled", serveModels[i%len(serveModels)], 2, 24, hotTrials, g.base+uint64(i), 0.5)
	}
	g.popularity = g.rng.Perm(hotSetSize)
	g.zipf = newZipf(hotSetSize, zipfS)
	return g
}

// estimateReq builds a /v1/estimate request; the body's field order is
// fixed, so equal requests have equal bytes.
func estimateReq(kind, model string, threads, m, trials int, seed uint64, p float64) *request {
	body, _ := json.Marshal(struct {
		Model     string  `json:"model"`
		Threads   int     `json:"threads"`
		PrefixLen int     `json:"prefix_len"`
		Estimator string  `json:"estimator"`
		Trials    int     `json:"trials"`
		Seed      uint64  `json:"seed"`
		StoreProb float64 `json:"store_prob"`
		SwapProb  float64 `json:"swap_prob"`
	}{model, threads, m, kind, trials, seed, p, 0.5})
	t := 0
	if kind == "mc-compiled" || kind == "mc" || kind == "hybrid" {
		t = trials
	}
	return &request{path: "/v1/estimate", body: body, trials: t}
}

// windowDistReq builds a /v1/windowdist request.
func windowDistReq(model string, m int, p float64) *request {
	body, _ := json.Marshal(struct {
		Model     string  `json:"model"`
		PrefixLen int     `json:"prefix_len"`
		MaxGamma  int     `json:"max_gamma"`
		StoreProb float64 `json:"store_prob"`
		SwapProb  float64 `json:"swap_prob"`
	}{model, m, 8, p, 0.5})
	return &request{path: "/v1/windowdist", body: body}
}

// freshProb is a store probability no earlier fresh request used.
func (g *keygen) freshProb() float64 {
	g.fresh++
	return 0.25 + float64(g.fresh)*1e-5 + math.Round(g.rng.Float64()*1e3)*1e-9
}

// freshSeed is a seed no earlier request used.
func (g *keygen) freshSeed() uint64 {
	g.fresh++
	return g.base + hotSetSize + uint64(g.fresh)
}

// model cycles through the models, so every seed gets the same model
// mix (the exact DP's cost differs by model).
func (g *keygen) model() string { return serveModels[g.fresh%len(serveModels)] }

// Fresh request classes: each misses every cache tier when first sent.
func (g *keygen) freshMC() *request {
	return estimateReq("mc-compiled", g.model(), 2, 24, freshTrials, g.freshSeed(), 0.5)
}
func (g *keygen) freshHybrid() *request {
	return estimateReq("hybrid", g.model(), 4, 24, hybridTrials, g.freshSeed(), 0.5)
}
func (g *keygen) freshExact() *request {
	return estimateReq("exact", g.model(), 2, detPrefix, 0, 1, g.freshProb())
}
func (g *keygen) freshWindowDist() *request {
	return windowDistReq(g.model(), detPrefix, g.freshProb())
}

// blockMix is the composition of every block of blockSize arrivals: the
// mix is the same for every seed, only order, timing and keys change.
// Three arrivals in a hundred miss the caches, so the p99 latency falls
// about two thirds of the way up the misses' latencies rather than in
// their extreme tail.
var blockMix = []struct {
	class string
	count int
}{
	{"hot", 193},
	{"mc", 2},
	{"hybrid", 1},
	{"exact", 1},
	{"windowdist", 1},
	{"dup", 1}, // pairs: two arrivals each
}

// blockSize is the number of arrivals per block.
const blockSize = 200

// zipf samples hot-set ranks with P(r) ∝ 1/r^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// schedule generates n arrivals at a mean rate (per second): Poisson
// arrival gaps, the block mix in shuffled order, hot keys drawn by Zipf
// over a seeded popularity order, and each duplicate pair due at the
// same instant.
func (g *keygen) schedule(n int, rate float64) []arrival {
	var classes []string
	for _, m := range blockMix {
		for i := 0; i < m.count; i++ {
			classes = append(classes, m.class)
		}
	}
	out := make([]arrival, 0, n)
	var t time.Duration
	gap := func() time.Duration {
		return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
	}
	for len(out) < n {
		g.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, c := range classes {
			if len(out) >= n {
				break
			}
			t += gap()
			var r *request
			switch c {
			case "hot":
				r = g.hot[g.popularity[g.zipf.sample(g.rng)]]
			case "mc":
				r = g.freshMC()
			case "hybrid":
				r = g.freshHybrid()
			case "exact":
				r = g.freshExact()
			case "windowdist":
				r = g.freshWindowDist()
			case "dup":
				r = g.freshMC()
				out = append(out, arrival{due: t, req: r})
				t += gap()
			}
			out = append(out, arrival{due: t, req: r})
		}
	}
	return out[:n]
}

// batch returns n fresh requests: per model, two mc-compiled, one
// hybrid, one exact and one windowdist, cycling through the models.
func (g *keygen) batch(n int) []*request {
	out := make([]*request, 0, n)
	for i := 0; len(out) < n; i++ {
		switch i % 5 {
		case 0, 1:
			out = append(out, g.freshMC())
		case 2:
			out = append(out, g.freshHybrid())
		case 3:
			out = append(out, g.freshExact())
		case 4:
			out = append(out, g.freshWindowDist())
		}
	}
	return out
}

// outcome is what one request of a run observed. Times are offsets from
// the run's start.
type outcome struct {
	req             *request
	due, sent, done time.Duration
	status          int
	cache           string
	err             error
}

// latency runs from the request's due time, so it includes the
// generator's own lateness and any wait for a free connection.
func (o outcome) latency() time.Duration { return o.done - o.due }

// late is how far behind schedule the generator issued the request.
func (o outcome) late() time.Duration { return o.sent - o.due }

// bodies remembers the first body seen for every key and checks every
// later one against it.
type bodies struct {
	mu    sync.Mutex
	first map[string][]byte
}

func newBodies() *bodies { return &bodies{first: map[string][]byte{}} }

// match records body as the key's reference if it is the first one, and
// otherwise returns the reference to compare against.
func (b *bodies) match(key string, body []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if want, ok := b.first[key]; ok {
		return want
	}
	b.first[key] = body
	return nil
}

// target is the server a load run drives.
type target struct {
	client *http.Client
	base   string
	conns  int
	bodies *bodies
	tally  *tally
}

// do sends one request and classifies the exchange.
func (tg *target) do(o *outcome, start time.Time, parent *span) {
	sp := parent.childAt("request", start.Add(o.due))
	hs := sp.child("http.post")
	resp, err := tg.client.Post(tg.base+o.req.path, "application/json", bytes.NewReader(o.req.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.cache = resp.Header.Get("X-Cache")
	}
	o.done = time.Since(start)
	hs.finish()
	sp.finish()
	var want []byte
	if err == nil && o.status == http.StatusOK {
		want = tg.bodies.match(o.req.key(), body)
	}
	err = httpOutcome(err, o.status, body, want)
	if err == nil {
		switch o.cache {
		case "hit", "miss", "disk", "dedup":
		default:
			err = fmt.Errorf("unexpected X-Cache %q", o.cache)
		}
	}
	o.err = err
	tg.tally.op(err)
}

// openLoop issues the schedule at its due times, whatever the state of
// earlier requests, over at most tg.conns connections. A request that
// finds every connection busy waits in the queue; its latency still
// counts from its due time.
func (tg *target) openLoop(sched []arrival, parent *span) []outcome {
	out := make([]outcome, len(sched))
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < tg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				tg.do(&out[i], start, parent)
			}
		}()
	}
	for i, a := range sched {
		// The runtime timer can wake the generator up to a millisecond
		// late; that lateness is part of every latency and is reported.
		// Spinning instead would hold a processor, which keeps network
		// events from being polled while the other one computes.
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i] = outcome{req: a.req, due: a.due, sent: time.Since(start)}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop sends every request as fast as tg.conns connections allow
// and returns the outcomes and the wall time.
func (tg *target) closedLoop(reqs []*request, parent *span) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	queue := make(chan int, len(reqs))
	for i, r := range reqs {
		out[i] = outcome{req: r}
		queue <- i
	}
	close(queue)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < tg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].due = time.Since(start)
				out[i].sent = out[i].due
				tg.do(&out[i], start, parent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

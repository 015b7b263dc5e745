package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	gen := func(seed uint64) ([]arrival, []*request) {
		g := newKeygen(seed)
		return g.schedule(600, nominalRate), g.batch(burstSize)
	}
	a1, b1 := gen(7)
	a2, b2 := gen(7)
	a3, _ := gen(8)
	if len(a1) != 600 || len(b1) != burstSize {
		t.Fatalf("got %d arrivals and %d batch requests", len(a1), len(b1))
	}
	same := func(x, y []arrival) bool {
		for i := range x {
			if x[i].due != y[i].due || x[i].req.key() != y[i].req.key() {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(a1, a2) {
		t.Fatal("same seed gave different schedules")
	}
	for i := range b1 {
		if b1[i].key() != b2[i].key() {
			t.Fatal("same seed gave different bursts")
		}
	}
	if same(a1, a3) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a1); i++ {
		if a1[i].due < a1[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
}

func TestScheduleMixAndKeys(t *testing.T) {
	total := 0
	for _, m := range blockMix {
		total += m.count
		if m.class == "dup" {
			total += m.count
		}
	}
	if total != blockSize {
		t.Fatalf("block mix has %d arrivals, want %d", total, blockSize)
	}
	g := newKeygen(3)
	sched := g.schedule(2*blockSize, nominalRate)
	hot := map[string]bool{}
	for _, r := range g.hot {
		hot[r.key()] = true
	}
	seen := map[string]int{}
	hits := 0
	for _, a := range sched {
		k := a.req.key()
		if hot[k] {
			hits++
			continue
		}
		seen[k]++
	}
	if want := 2 * blockMix[0].count; hits != want {
		t.Fatalf("%d hot arrivals, want %d", hits, want)
	}
	pairs := 0
	for k, n := range seen {
		switch n {
		case 1:
		case 2:
			pairs++
		default:
			t.Fatalf("fresh key sent %d times: %s", n, k)
		}
	}
	if pairs != 2 {
		t.Fatalf("%d duplicate pairs, want 2", pairs)
	}
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, {10010, 99.9}, {9999, 99}, {1010, 99}, {1000, 99}, {999, 95},
		{200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestDueTimeLatencyIncludesLateness(t *testing.T) {
	o := outcome{due: time.Millisecond, sent: 4 * time.Millisecond, done: 6 * time.Millisecond}
	if o.late() != 3*time.Millisecond || o.latency() != 5*time.Millisecond {
		t.Fatalf("late %v latency %v, want 3ms and 5ms", o.late(), o.latency())
	}

	// One connection and a slow handler: arrivals all due at once queue
	// behind each other, and their latency counts the wait.
	const service = 5 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("X-Cache", "hit")
		fmt.Fprint(w, "{}")
	}))
	defer srv.Close()
	tg := &target{client: clientFor(1), base: srv.URL, conns: 1, bodies: newBodies(), tally: &tally{}}
	var sched []arrival
	for i := 0; i < 4; i++ {
		sched = append(sched, arrival{due: 0, req: &request{path: "/", body: []byte{byte('a' + i)}}})
	}
	outs := tg.openLoop(sched, nil)
	for i, o := range outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.latency() != o.done-o.due || o.latency() < o.done-o.sent {
			t.Fatalf("request %d: latency %v does not run from the due time", i, o.latency())
		}
		if min := time.Duration(i+1) * service; o.latency() < min {
			t.Fatalf("request %d: latency %v, want at least %v of queueing and service", i, o.latency(), min)
		}
	}
}

func TestFailureCounting(t *testing.T) {
	cases := []struct {
		transport  error
		status     int
		body, want []byte
		fail       bool
	}{
		{nil, 200, []byte("x"), nil, false},
		{nil, 204, []byte(""), nil, false},
		{nil, 200, []byte("x"), []byte("x"), false},
		{nil, 200, []byte("x"), []byte("y"), true},
		{nil, 404, []byte("x"), nil, true},
		{nil, 500, []byte("x"), nil, true},
		{nil, 199, nil, nil, true},
		{errors.New("refused"), 0, nil, nil, true},
	}
	for i, c := range cases {
		if err := httpOutcome(c.transport, c.status, c.body, c.want); (err != nil) != c.fail {
			t.Errorf("case %d: error %v, want failure %v", i, err, c.fail)
		}
	}

	// Against a server: one op per request, failed once whatever is wrong.
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/status":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/cache":
			w.Header().Set("X-Cache", "bogus")
		case "/drift":
			w.Header().Set("X-Cache", "miss")
			fmt.Fprint(w, n.Add(1)) // a different body every time
		default:
			w.Header().Set("X-Cache", "hit")
			fmt.Fprint(w, "same")
		}
	}))
	defer srv.Close()
	tl := &tally{}
	tg := &target{client: clientFor(2), base: srv.URL, conns: 2, bodies: newBodies(), tally: tl}
	reqs := []*request{
		{path: "/ok"}, {path: "/ok"}, // identical bodies: fine
		{path: "/drift"}, {path: "/drift"}, // second body differs: one failure
		{path: "/status"}, // non-2xx
		{path: "/cache"},  // unknown cache state
	}
	outs, _ := tg.closedLoop(reqs, nil)
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
		}
	}
	if tl.attempted != 6 || tl.failed != 3 || failed != 3 {
		t.Fatalf("attempted %d failed %d (outcomes %d), want 6 and 3", tl.attempted, tl.failed, failed)
	}
	bad := &target{client: clientFor(1), base: "http://127.0.0.1:1", conns: 1, bodies: newBodies(), tally: tl}
	bad.closedLoop([]*request{{path: "/"}}, nil)
	if tl.attempted != 7 || tl.failed != 4 {
		t.Fatalf("transport error: attempted %d failed %d, want 7 and 4", tl.attempted, tl.failed)
	}
	tl.check(true, "never")
	tl.check(false, "always")
	tl.ops(5)
	if tl.attempted != 14 || tl.failed != 5 {
		t.Fatalf("checks: attempted %d failed %d, want 14 and 5", tl.attempted, tl.failed)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := &span{name: "root", start: at(0), end: at(100)}
	add := func(lo, hi int) *span {
		c := root.childAt("c", at(lo))
		c.end = at(hi)
		return c
	}
	if root.self() != 100*time.Millisecond {
		t.Fatalf("childless self %v", root.self())
	}
	add(10, 30)
	add(20, 40)  // overlaps the first: union 10..40
	add(60, 70)  // disjoint
	add(90, 120) // runs past the parent: clipped to 90..100
	c := add(65, 68)
	c.childAt("grandchild", at(65)).end = at(68)
	// Covered: 10..40 (30) + 60..70 (10) + 90..100 (10) = 50ms.
	if got := root.self(); got != 50*time.Millisecond {
		t.Fatalf("self %v, want 50ms", got)
	}
	if c.self() != 0 {
		t.Fatalf("fully covered child has self %v", c.self())
	}
	totals := map[string]*spanTotals{}
	root.summarize(totals)
	if totals["c"].count != 5 || totals["grandchild"].count != 1 {
		t.Fatalf("summary counts %+v", totals["c"])
	}
	var nilSpan *span
	nilSpan.child("x").finish() // the untraced run's spans are no-ops
}

func TestBinomialConsistent(t *testing.T) {
	if !binomialConsistent(500, 1000, 0.5, 0.5) {
		t.Fatal("fair coin rejected")
	}
	if binomialConsistent(600, 1000, 0.5, 0.5) {
		t.Fatal("600/1000 accepted at p=0.5")
	}
	if !binomialConsistent(600, 1000, 0.5, 0.6) {
		t.Fatal("interval containing the rate rejected")
	}
	if !binomialConsistent(0, 1000, 0, 0) || binomialConsistent(1, 1000, 0, 0) {
		t.Fatal("p=0 edge")
	}
}

func TestStepVerdict(t *testing.T) {
	steady := make([]outcome, 100)
	growing := make([]outcome, 100)
	for i := range steady {
		due := time.Duration(i) * time.Millisecond
		steady[i] = outcome{due: due, sent: due, done: due + 2*time.Millisecond}
		growing[i] = outcome{due: due, sent: due, done: due + time.Duration(i)*time.Millisecond}
	}
	ok, achieved := stepVerdict(steady, 50*time.Millisecond)
	if !ok || achieved < 900 || achieved > 1100 {
		t.Fatalf("steady step: ok %v achieved %v", ok, achieved)
	}
	if ok, _ := stepVerdict(growing, 200*time.Millisecond); ok {
		t.Fatal("a growing backlog passed")
	}
	if ok, _ := stepVerdict(steady, time.Millisecond); ok {
		t.Fatal("a step over the latency limit passed")
	}
}

func TestParseProm(t *testing.T) {
	c, err := parseProm(strings.NewReader(`# HELP x_total help
# TYPE x_total counter
x_total{kind="mc",route="a"} 3
x_total{kind="mc-compiled",route="a"} 4
y_seconds_sum 1.5
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.sum("x_total"); got != 7 {
		t.Fatalf("sum %v", got)
	}
	if got := c.sum("x_total", `kind="mc"`); got != 3 {
		t.Fatalf("label filter %v", got)
	}
	if got := c.sum("y_seconds_sum"); got != 1.5 {
		t.Fatalf("unlabelled %v", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, drivers %d", names, len(workloads))
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit, m.Better})
		}
		w = append(w, want...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ntables         %v", what, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestDigestsEmbedded(t *testing.T) {
	if _, err := referenceDigests(); err != nil {
		t.Fatal(err)
	}
}

func TestStepMetricsListed(t *testing.T) {
	listed := map[string]bool{}
	for _, d := range perLayer {
		listed[d.name] = true
	}
	for _, f := range stepFactors {
		if name := stepMetric(nominalRate * f); !listed[name] {
			t.Errorf("%s is not in the per-layer table", name)
		}
	}
}

func TestWindowedPercentiles(t *testing.T) {
	// 3000 samples in three windows; the middle one is slow throughout.
	var xs []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if w == 1 {
				v *= 10
			}
			xs = append(xs, v)
		}
	}
	p50, p99, n := windowed(xs)
	if n != 3 || p50 != 500 || p99 != 990 {
		t.Fatalf("windowed = %v, %v, %d windows; want 500, 990, 3", p50, p99, n)
	}
	if _, _, n := windowed(xs[:999]); n != 1 {
		t.Fatalf("999 samples made %d windows", n)
	}
	if _, _, n := windowed(xs[:2999]); n != 2 {
		t.Fatalf("2999 samples made %d windows", n)
	}
}

func TestSetPassesMedians(t *testing.T) {
	rc := &runCtx{values: map[string]float64{}, samples: map[string][]float64{}}
	cold := []float64{1, 4, 2}
	warm := []float64{0.5, 0.25, 1}
	coldCPU := []float64{2, 8, 1}
	warmCPU := []float64{1, 1, 1}

	// One trial count applies to every pass: 100 trials per 2, 8 and 1
	// CPU seconds, median 50.
	rc.setPasses(cold, warm, coldCPU, warmCPU, 100)
	want := map[string]float64{
		"trials_per_cpu_s":     50,
		"wall.makespan_s":      2,
		"wall.warm_makespan_s": 0.5,
		"wall.trials_per_s":    50,
	}
	for k, v := range want {
		if rc.values[k] != v {
			t.Errorf("%s = %v, want %v", k, rc.values[k], v)
		}
	}
	if !reflect.DeepEqual(rc.samples["cold_cpu_s"], coldCPU) || !reflect.DeepEqual(rc.samples["warm_s"], warm) {
		t.Errorf("samples not recorded: %v", rc.samples)
	}

	// Per-pass trial counts: 60/2, 400/8 and 10/1 per CPU second give
	// 30, 50 and 10, median 30; per wall second 60, 100 and 5.
	rc.setPasses(cold, warm, coldCPU, warmCPU, 60, 400, 10)
	if rc.values["trials_per_cpu_s"] != 30 || rc.values["wall.trials_per_s"] != 60 {
		t.Errorf("per-pass trials: trials_per_cpu_s %v, wall.trials_per_s %v; want 30 and 60",
			rc.values["trials_per_cpu_s"], rc.values["wall.trials_per_s"])
	}
}

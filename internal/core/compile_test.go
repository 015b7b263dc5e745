package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// These are the compiled engine's correctness gate: a Program must be
// bit-identical to the paper's reference processes — NoBugBatch (the
// []bool batch over ManifestTrial's sampling routine) for bits,
// ProductTrial for products — with the same final generator state,
// across a lattice wide enough that runs cross the refill and lookahead
// boundaries: thread counts up to 16, prefixes up to one full word and
// past it, swap probabilities near 1 (long walks), the draw-free
// p, s ∈ {0, 1} edges, batch sizes that end mid-word, and the harness's
// sub-batch call pattern.

// latticeCase is one point of the property-test grid.
type latticeCase struct {
	cfg Config
}

func (lc latticeCase) String() string {
	c := lc.cfg
	return fmt.Sprintf("%s n=%d m=%d p=%v s=%v", c.Model.Name(), c.Threads, c.PrefixLen, c.StoreProb, c.SwapProb)
}

// compileLattice sweeps models × n ∈ {2,3,5,16} × m ∈ {0,1,7,24,63,64}
// × s ∈ {0.5,0.9,0.99} at p = 1/2, then the edge probabilities on a
// smaller grid, then prefixes wider than one word (the per-draw path),
// then all sixteen relaxation subsets on a small grid.
func compileLattice() []latticeCase {
	var out []latticeCase
	add := func(model memmodel.Model, n, m int, p, s float64) {
		out = append(out, latticeCase{Config{Model: model, Threads: n, PrefixLen: m, StoreProb: p, SwapProb: s}})
	}
	for _, model := range kernelModels() {
		for _, n := range []int{2, 3, 5, 16} {
			for _, m := range []int{0, 1, 7, 24, 63, 64} {
				for _, s := range []float64{0.5, 0.9, 0.99} {
					add(model, n, m, 0.5, s)
				}
			}
		}
		type probs struct{ store, swap float64 }
		for _, pr := range []probs{{0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {1, 1}, {0, 0}, {0, 1}, {1, 0}} {
			for _, n := range []int{2, 5} {
				for _, m := range []int{0, 7, 64} {
					add(model, n, m, pr.store, pr.swap)
				}
			}
		}
		for _, m := range []int{65, 100} {
			add(model, 3, m, 0.5, 0.9)
			add(model, 2, m, 1, 1)
			add(model, 2, m, 0.3, 0)
		}
	}
	// Every relaxation subset of Table 1's four pairs, so each engine
	// path (still, blind, runs of one kind, the general walk) meets
	// every surface that selects it — RMO and LRO among them.
	pairs := []memmodel.Pair{{Prev: memmodel.Store, Moving: memmodel.Store}, {Prev: memmodel.Store, Moving: memmodel.Load},
		{Prev: memmodel.Load, Moving: memmodel.Store}, {Prev: memmodel.Load, Moving: memmodel.Load}}
	for set := 0; set < 1<<len(pairs); set++ {
		var relaxed []memmodel.Pair
		for i, pr := range pairs {
			if set>>i&1 != 0 {
				relaxed = append(relaxed, pr)
			}
		}
		model, err := memmodel.New(fmt.Sprintf("relax%04b", set), relaxed)
		if err != nil {
			panic(err)
		}
		for _, n := range []int{2, 5} {
			for _, m := range []int{0, 1, 7, 24, 64, 70} {
				add(model, n, m, 0.5, 0.5)
				add(model, n, m, 0.4, 0.99)
			}
		}
	}
	return out
}

// latticeTrials sizes a case's batch: it ends mid-word, and small
// configurations get enough trials that their draws span several
// refills; n = 16 and full-word prefixes cross them within far fewer
// trials (and cost the reference O(n·m²) draws each).
func latticeTrials(cfg Config) int {
	if cfg.Threads >= 16 || cfg.PrefixLen >= 63 {
		return 70 // 1 full word + 6 bits
	}
	return 300 // 4 full words + 44 bits; ≥ 4 draws a trial spans a refill
}

// compileFor builds the compiled program for a config, failing the test
// on any compile error (every Config must be compilable).
func compileFor(t *testing.T, cfg Config) *Program {
	t.Helper()
	ir, err := cfg.BuildIR()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ir.Compile()
	if err != nil {
		t.Fatalf("%v: %v", latticeCase{cfg}, err)
	}
	return prog
}

// checkBitsCall runs one FillBits call and the reference NoBugBatch
// call of the same size on sources in the same state, and fails unless
// the bitsets (including the zeroed tail of a dirty partial final word)
// and the final generator states agree.
func checkBitsCall(t *testing.T, what string, prog *Program, ref mc.BatchTrial, got, want *rng.Source, trials int) {
	t.Helper()
	words := make([]uint64, mc.BitWords(trials))
	for w := range words {
		words[w] = ^uint64(0) // contract: unused bits come back zero
	}
	bools := make([]bool, trials)
	if err := prog.FillBits(got, words, trials); err != nil {
		t.Fatal(err)
	}
	if err := ref(want, bools); err != nil {
		t.Fatal(err)
	}
	ones := 0
	for i := 0; i < len(words)*mc.WordBits; i++ {
		bit := words[i>>6]>>uint(i&63)&1 != 0
		if i >= trials {
			if bit {
				t.Fatalf("%s: bit %d past n=%d is set", what, i, trials)
			}
			continue
		}
		if bit != bools[i] {
			t.Fatalf("%s: trial %d: compiled=%v reference=%v", what, i, bit, bools[i])
		}
		if bit {
			ones++
		}
	}
	if ones != mc.OnesCount(words) {
		t.Fatalf("%s: popcount mismatch", what)
	}
	if got.State() != want.State() {
		t.Fatalf("%s: engines consumed different draws", what)
	}
}

// checkProductsCall is checkBitsCall for FillProducts against the
// ProductTrial closure: identical float64 bits, identical final state.
func checkProductsCall(t *testing.T, what string, prog *Program, cfg Config, got, want *rng.Source, trials int) {
	t.Helper()
	out := make([]float64, trials)
	if err := prog.FillProducts(got, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		ref, err := cfg.ProductTrial(want)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != ref {
			t.Fatalf("%s: trial %d: compiled=%v reference=%v", what, i, out[i], ref)
		}
	}
	if got.State() != want.State() {
		t.Fatalf("%s: engines consumed different draws", what)
	}
}

// TestCompiledBitsMatchReference is the main equality property:
// compiled FillBits against NoBugBatch on shared substreams over the
// whole lattice — one whole batch, then the same stream continued in
// uneven sub-batches, checked after every call.
func TestCompiledBitsMatchReference(t *testing.T) {
	for _, lc := range compileLattice() {
		cfg := lc.cfg
		prog := compileFor(t, cfg)
		ref, err := cfg.NoBugBatch()
		if err != nil {
			t.Fatal(err)
		}
		got, want := rng.New(11), rng.New(11)
		trials := latticeTrials(cfg)
		checkBitsCall(t, lc.String(), prog, ref, got, want, trials)
		for call, n := range []int{trials / 3, 1, 0, 64} {
			checkBitsCall(t, fmt.Sprintf("%v sub-batch %d", lc, call), prog, ref, got, want, n)
		}
	}
}

// TestCompiledProductsMatchKernel checks compiled FillProducts against
// the ProductTrial reference over the same lattice, whole and in
// sub-batches.
func TestCompiledProductsMatchKernel(t *testing.T) {
	for _, lc := range compileLattice() {
		cfg := lc.cfg
		prog := compileFor(t, cfg)
		got, want := rng.New(17), rng.New(17)
		trials := latticeTrials(cfg)
		checkProductsCall(t, lc.String(), prog, cfg, got, want, trials)
		for call, n := range []int{trials / 3, 1, 0} {
			checkProductsCall(t, fmt.Sprintf("%v sub-batch %d", lc, call), prog, cfg, got, want, n)
		}
	}
}

// TestCompiledSubBatchResync replays the mc harness's actual call
// pattern — repeated batch calls on one source with sub-chunk sizes, as
// runProbChunk's cancellation sub-batches and the adaptive engine's
// round barriers produce — on the grid's shapes, checking the engine
// stays bit-identical and draw-synchronized with the reference after
// every call. This is what the drawCursor's snapshot-and-resync exists
// for.
func TestCompiledSubBatchResync(t *testing.T) {
	for _, cfg := range []Config{
		{Model: memmodel.TSO(), Threads: 2, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.WO(), Threads: 16, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.PSO(), Threads: 3, PrefixLen: 64, StoreProb: 0.5, SwapProb: 0.99},
		{Model: memmodel.WO(), Threads: 2, PrefixLen: 80, StoreProb: 0.5, SwapProb: 0.5},
	} {
		prog := compileFor(t, cfg)
		ref, err := cfg.NoBugBatch()
		if err != nil {
			t.Fatal(err)
		}
		got, want := rng.New(43), rng.New(43)
		sizes := []int{1024, 1024, 137, 64, 1, 1024}
		if cfg.Threads >= 16 {
			sizes = []int{256, 137, 64, 1, 200}
		}
		for call, n := range sizes {
			checkBitsCall(t, fmt.Sprintf("%v call %d", latticeCase{cfg}, call), prog, ref, got, want, n)
		}
	}
}

// TestCompiledEstimateMatchesReference runs the full fixed-trials
// estimation pipeline on the engine and on the []bool reference route
// through the same harness: identical Results, at one worker and
// several.
func TestCompiledEstimateMatchesReference(t *testing.T) {
	cfg := DefaultConfig(memmodel.PSO(), 3)
	cfg.PrefixLen = 16
	ref, err := cfg.NoBugBatch()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		mcCfg := mc.Config{Trials: 4000, Workers: workers, Seed: 7}
		got, err := EstimateNoBugProbCompiled(context.Background(), cfg, mcCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mc.EstimateProbabilityBatch(context.Background(), mcCfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.Proportion.Successes() != want.Proportion.Successes() || got.Estimate() != want.Estimate() {
			t.Fatalf("workers=%d: compiled %d/%v != reference %d/%v", workers,
				got.Proportion.Successes(), got.Estimate(), want.Proportion.Successes(), want.Estimate())
		}
	}
}

// TestCompiledAdaptiveMatchesReference pins the adaptive route to the
// reference: same rounds, same trials consumed, same stop reason, same
// estimate — the round barriers land on identical chunk boundaries
// because the routes are draw-for-draw identical.
func TestCompiledAdaptiveMatchesReference(t *testing.T) {
	cfg := DefaultConfig(memmodel.TSO(), 2)
	cfg.PrefixLen = 16
	acfg := mc.AdaptiveConfig{
		MaxTrials:       1 << 16,
		Workers:         2,
		Seed:            19,
		TargetHalfWidth: 0.01,
		Confidence:      0.95,
	}
	got, err := EstimateNoBugProbAdaptive(context.Background(), cfg, acfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cfg.NoBugBatch()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.EstimateAdaptiveBatch(context.Background(), acfg, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.TrialsUsed() != want.TrialsUsed() || got.Rounds != want.Rounds ||
		got.StopReason != want.StopReason || got.Estimate() != want.Estimate() {
		t.Fatalf("adaptive diverged: compiled trials=%d rounds=%d stop=%s est=%v, "+
			"reference trials=%d rounds=%d stop=%s est=%v",
			got.TrialsUsed(), got.Rounds, got.StopReason, got.Estimate(),
			want.TrialsUsed(), want.Rounds, want.StopReason, want.Estimate())
	}
}

// TestCompiledZeroAllocs asserts the compiled batch entry points
// allocate nothing in steady state (after the pool is warm) — the
// guarantee the compiled-kernel perf scenarios gate.
func TestCompiledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, cfg := range []Config{
		{Model: memmodel.TSO(), Threads: 2, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.WO(), Threads: 16, PrefixLen: 24, StoreProb: 0.5, SwapProb: 0.5},
		{Model: memmodel.PSO(), Threads: 3, PrefixLen: 100, StoreProb: 0.5, SwapProb: 0.5},
	} {
		prog := compileFor(t, cfg)
		src := rng.New(31)
		const trials = 700 // ends mid-word
		words := make([]uint64, mc.BitWords(trials))
		if err := prog.FillBits(src, words, trials); err != nil { // warm the pool
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if err := prog.FillBits(src, words, trials); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: FillBits allocates %.1f per call, want 0", latticeCase{cfg}, avg)
		}
		products := make([]float64, 128)
		if avg := testing.AllocsPerRun(10, func() {
			if err := prog.FillProducts(src, products); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v: FillProducts allocates %.1f per call, want 0", latticeCase{cfg}, avg)
		}
	}
}

// TestCompiledConcurrentBatchCalls runs many concurrent batch calls on
// one shared Program (the harness's worker pattern) and checks each
// stream against the reference — the pooled scratch states must not
// alias.
func TestCompiledConcurrentBatchCalls(t *testing.T) {
	cfg := DefaultConfig(memmodel.WO(), 3)
	cfg.PrefixLen = 12
	prog := compileFor(t, cfg)
	ref, err := cfg.NoBugBatch()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			const trials = 500
			got := make([]uint64, mc.BitWords(trials))
			want := make([]bool, trials)
			compiledSrc, refSrc := rng.New(seed), rng.New(seed)
			for rep := 0; rep < 5; rep++ {
				if err := prog.FillBits(compiledSrc, got, trials); err != nil {
					t.Error(err)
					return
				}
				if err := ref(refSrc, want); err != nil {
					t.Error(err)
					return
				}
				for i, w := range want {
					if (got[i>>6]>>uint(i&63)&1 != 0) != w {
						t.Errorf("seed %d rep %d trial %d: compiled != reference", seed, rep, i)
						return
					}
				}
			}
		}(uint64(100 + g))
	}
	wg.Wait()
}

// TestCompileRejectsNonUniformIR pins the engine's domain: IRs that
// Config.BuildIR never emits — per-pair swap thresholds, a shift that
// always succeeds, too few threads — fail to compile rather than
// compile something wrong.
func TestCompileRejectsNonUniformIR(t *testing.T) {
	cfg := DefaultConfig(memmodel.WO(), 2)
	build := func() *KernelIR {
		ir, err := cfg.BuildIR()
		if err != nil {
			t.Fatal(err)
		}
		return ir
	}
	nonUniform := build()
	nonUniform.SwapThr[0][1] = drawThreshold(0.25)
	certainShift := build()
	certainShift.ShiftThr = alwaysThr
	oneThread := build()
	oneThread.Threads = 1
	for name, ir := range map[string]*KernelIR{"per-pair": nonUniform, "shift=1": certainShift, "n=1": oneThread} {
		if _, err := ir.Compile(); err == nil {
			t.Errorf("%s: compiled", name)
		}
	}
}

// TestCompiledCertainShiftFailure covers the one IR edge no Config
// reaches: a shift that never succeeds is 0 without a draw, as
// Geometric{P: 0} samples it. On SC with an empty prefix nothing else
// draws either, so the source must not move and, with every window
// [0, 2] overlapping, no trial is bug-free.
func TestCompiledCertainShiftFailure(t *testing.T) {
	cfg := Config{Model: memmodel.SC(), Threads: 3, PrefixLen: 0, StoreProb: 0.5, SwapProb: 0.5}
	ir, err := cfg.BuildIR()
	if err != nil {
		t.Fatal(err)
	}
	ir.ShiftThr = neverThr
	prog, err := ir.Compile()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	before := src.State()
	words := make([]uint64, 2)
	if err := prog.FillBits(src, words, 100); err != nil {
		t.Fatal(err)
	}
	if src.State() != before || words[0] != 0 || words[1] != 0 {
		t.Fatalf("certain shift failure drew or succeeded: %x", words)
	}
}

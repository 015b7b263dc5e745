package core

import (
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// kernelModels covers every canonical model — the full spread of
// relaxation matrices the engine's permission masks must encode, from
// all-forbidden (SC) to all-permitted (WO).
func kernelModels() []memmodel.Model {
	return []memmodel.Model{memmodel.SC(), memmodel.TSO(), memmodel.PSO(), memmodel.WO()}
}

// TestKernelBitsMatchReference sweeps models × thread counts × prefix
// lengths and checks the plan-cached NoBugBits batch against the []bool
// reference NoBugBatch and the per-trial closure on shared substreams:
// the three routes must produce identical booleans trial for trial,
// including on batch sizes that end mid-word. Edge probabilities
// (p, s ∈ {0, 1}) exercise the draw-free constant bitmaps.
func TestKernelBitsMatchReference(t *testing.T) {
	type probs struct{ store, swap float64 }
	cases := []probs{{0.5, 0.5}, {0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}}
	for _, model := range kernelModels() {
		for _, n := range []int{2, 4} {
			for _, m := range []int{0, 1, 7, 16} {
				for _, pr := range cases {
					cfg := Config{Model: model, Threads: n, PrefixLen: m,
						StoreProb: pr.store, SwapProb: pr.swap}
					bits, err := cfg.NoBugBits()
					if err != nil {
						t.Fatal(err)
					}
					ref, err := cfg.NoBugBatch()
					if err != nil {
						t.Fatal(err)
					}
					const trials = 131 // ends mid-word: 2 full words + 3 bits
					words := make([]uint64, mc.BitWords(trials))
					for w := range words {
						words[w] = ^uint64(0) // dirty buffer: contract says unused bits come back zero
					}
					bools := make([]bool, trials)
					bitsSrc, refSrc, closureSrc := rng.New(11), rng.New(11), rng.New(11)
					if err := bits(bitsSrc, words, trials); err != nil {
						t.Fatal(err)
					}
					if err := ref(refSrc, bools); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < trials; i++ {
						got := words[i>>6]&(1<<uint(i&63)) != 0
						if got != bools[i] {
							t.Fatalf("%s n=%d m=%d p=%v s=%v trial %d: bits=%v reference=%v",
								model.Name(), n, m, pr.store, pr.swap, i, got, bools[i])
						}
						manifested, err := cfg.ManifestTrial(closureSrc)
						if err != nil {
							t.Fatal(err)
						}
						if got != !manifested {
							t.Fatalf("%s n=%d m=%d p=%v s=%v trial %d: bits=%v closure no-bug=%v",
								model.Name(), n, m, pr.store, pr.swap, i, got, !manifested)
						}
					}
					for i := trials; i < len(words)*mc.WordBits; i++ {
						if words[i>>6]&(1<<uint(i&63)) != 0 {
							t.Fatalf("%s n=%d m=%d: bit %d past n is set", model.Name(), n, m, i)
						}
					}
					if bitsSrc.State() != refSrc.State() {
						t.Fatalf("%s n=%d m=%d p=%v s=%v: bits and reference consumed different draws",
							model.Name(), n, m, pr.store, pr.swap)
					}
				}
			}
		}
	}
}

// TestKernelProductsMatchClosure checks the plan-cached ProductBatch
// against the ProductTrial closure across every model: identical float64
// bits on identical substreams.
func TestKernelProductsMatchClosure(t *testing.T) {
	for _, model := range kernelModels() {
		cfg := Config{Model: model, Threads: 5, PrefixLen: 12, StoreProb: 0.4, SwapProb: 0.6}
		batch, err := cfg.ProductBatch()
		if err != nil {
			t.Fatal(err)
		}
		const trials = 200
		batchSrc, closureSrc := rng.New(17), rng.New(17)
		out := make([]float64, trials)
		if err := batch(batchSrc, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trials; i++ {
			want, err := cfg.ProductTrial(closureSrc)
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want {
				t.Fatalf("%s trial %d: kernel=%v closure=%v", model.Name(), i, out[i], want)
			}
		}
	}
}

// TestKernelTrialMatchesManifest pins the engine one trial at a time to
// the negated ManifestTrial: single-trial FillBits calls, each a full
// attach and resync of the draw cursor.
func TestKernelTrialMatchesManifest(t *testing.T) {
	cfg := DefaultConfig(memmodel.PSO(), 3)
	cfg.PrefixLen = 10
	bits, err := cfg.NoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	kernelSrc, closureSrc := rng.New(23), rng.New(23)
	word := make([]uint64, 1)
	for i := 0; i < 300; i++ {
		if err := bits(kernelSrc, word, 1); err != nil {
			t.Fatal(err)
		}
		manifested, err := cfg.ManifestTrial(closureSrc)
		if err != nil {
			t.Fatal(err)
		}
		if got := word[0] == 1; got != !manifested {
			t.Fatalf("trial %d: kernel no-bug=%v closure manifested=%v", i, got, manifested)
		}
		if kernelSrc.State() != closureSrc.State() {
			t.Fatalf("trial %d: kernel and closure consumed different draws", i)
		}
	}
}

// TestKernelZeroAllocs asserts the plan-cached batch constructors'
// batches allocate nothing per call once warm — the guarantee the perf
// suite's strict zero-alloc gate rides on, on the route mc and hybrid
// take.
func TestKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig(memmodel.TSO(), 2)
	cfg.PrefixLen = 24
	bits, err := cfg.NoBugBits()
	if err != nil {
		t.Fatal(err)
	}
	products, err := cfg.ProductBatch()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	const trials = 700 // ends mid-word
	words := make([]uint64, mc.BitWords(trials))
	out := make([]float64, 128)
	if err := bits(src, words, trials); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := bits(src, words, trials); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("NoBugBits batch allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := products(src, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ProductBatch batch allocates %.1f per call, want 0", avg)
	}
}

// TestKernelValidates checks that invalid configs fail at construction,
// for the IR lowering and both batch constructors.
func TestKernelValidates(t *testing.T) {
	bad := Config{Model: memmodel.TSO(), Threads: 1, PrefixLen: 16}
	var zero Config
	for name, cfg := range map[string]Config{"threads=1": bad, "zero config": zero} {
		if _, err := cfg.BuildIR(); err == nil {
			t.Errorf("BuildIR accepted the %s", name)
		}
		if _, err := cfg.NoBugBits(); err == nil {
			t.Errorf("NoBugBits accepted the %s", name)
		}
		if _, err := cfg.ProductBatch(); err == nil {
			t.Errorf("ProductBatch accepted the %s", name)
		}
	}
}

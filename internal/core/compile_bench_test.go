package core

import (
	"fmt"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
)

// BenchmarkCompiledFillBits measures the compiled engine's steady-state
// 8192-trial chunk on every canonical model at the grid's smallest and
// largest thread counts (m = 24), for both trial kinds: FillBits (what
// mc runs) and FillProducts (what hybrid runs). A shape-specific
// slowdown — one model's settling walks, one thread count's refill
// pattern — shows up as its own row.
func BenchmarkCompiledFillBits(b *testing.B) {
	const trials = 8192
	for _, model := range kernelModels() {
		for _, n := range []int{2, 16} {
			cfg := DefaultConfig(model, n)
			cfg.PrefixLen = 24
			ir, err := cfg.BuildIR()
			if err != nil {
				b.Fatal(err)
			}
			prog, err := ir.Compile()
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/n=%d", model.Name(), n)
			b.Run("bits/"+name, func(b *testing.B) {
				src := rng.New(1)
				words := make([]uint64, mc.BitWords(trials))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := prog.FillBits(src, words, trials); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/trials, "ns/trial")
			})
			b.Run("products/"+name, func(b *testing.B) {
				src := rng.New(1)
				out := make([]float64, trials)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := prog.FillProducts(src, out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/trials, "ns/trial")
			})
		}
	}
}

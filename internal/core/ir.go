package core

import (
	"fmt"
	"math"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
)

// Instruction kind codes. The program model's location structure (prog
// package doc) makes footnote 2's same-location blocking a property of
// the kind alone: prefix LD/ST carry pairwise-distinct locations (never
// same-location blocked against anything), and the critical pair shares
// the critical location (blocked against each other, never against the
// prefix). Four codes therefore capture everything settling ever asks
// about an instruction.
const (
	kindLoad      = 0 // prefix LD
	kindStore     = 1 // prefix ST
	kindCritLoad  = 2 // critical LD (round m+1)
	kindCritStore = 3 // critical ST (round m+2)
)

// kindType maps kind codes to their memory-operation types.
var kindType = [4]memmodel.OpType{memmodel.Load, memmodel.Store, memmodel.Load, memmodel.Store}

// Draw thresholds: rng.Source.Bool(p) with p ∈ (0,1) succeeds iff
// Float64() < p, i.e. iff float64(Uint64()>>11)·2⁻⁵³ < p. Both sides
// are exact dyadic rationals, so for the integer variate v = Uint64()>>11
// the test is exactly v < ⌈p·2⁵³⌉. The edge probabilities draw nothing:
// p ≤ 0 always fails (neverThr, which no v is below) and p ≥ 1 always
// succeeds (alwaysThr, a sentinel that cannot collide with a real
// threshold, which is at most 2⁵³). One threshold therefore encodes
// Bool(p)'s full semantics.
const (
	neverThr  uint64 = 0
	alwaysThr uint64 = ^uint64(0)
)

// drawThreshold converts a probability to its draw threshold.
func drawThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return neverThr
	case p >= 1:
		return alwaysThr
	default:
		return uint64(math.Ceil(p * (1 << 53)))
	}
}

// KernelIR is the intermediate representation the compiled engine is
// built from: the full decision surface of one (model, n, m, p, s)
// query, lowered to integer draw thresholds (see drawThreshold).
// Compile (compile.go) lowers it further into a Program.
//
// A KernelIR is immutable after BuildIR and safe to share.
type KernelIR struct {
	// Threads is n, the number of settled program copies per trial.
	Threads int
	// PrefixLen is m, the random-program prefix length.
	PrefixLen int
	// StoreThr is the draw threshold for generating a prefix ST.
	StoreThr uint64
	// ShiftThr is the draw threshold of the geometric shift's success
	// probability (dist.StandardShift).
	ShiftThr uint64
	// SwapThr[p][m] is the swap decision surface in threshold form: the
	// success threshold when kind m may settle past kind p, and neverThr
	// when the pair is forbidden — by the same-location rule (crit-crit,
	// footnote 2) or the model's relaxation matrix.
	SwapThr [4][4]uint64
}

// BuildIR validates the configuration and lowers it to the kernel IR.
// This is the single place the model's relaxation matrix and the paper's
// probabilities are consulted; everything downstream is integer compares.
func (c Config) BuildIR() (*KernelIR, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	sp, err := memmodel.Uniform(c.SwapProb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ir := &KernelIR{
		Threads:   c.Threads,
		PrefixLen: c.PrefixLen,
		StoreThr:  drawThreshold(c.StoreProb),
		ShiftThr:  drawThreshold(dist.StandardShift().P),
	}
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			if p >= 2 && m >= 2 {
				// Both critical: same location, swap automatically fails
				// (footnote 2 — the critical ST never passes the critical LD).
				continue
			}
			if c.Model.Relaxed(kindType[p], kindType[m]) {
				ir.SwapThr[p][m] = drawThreshold(sp.For(kindType[p], kindType[m]))
			}
		}
	}
	return ir, nil
}

// uniformSwap reports whether every permitted swap pair shares a single
// draw threshold, and if so returns the permission masks and that
// threshold. mask[p] has bit m set iff kind m may settle past kind p.
// Config.BuildIR always produces a uniform surface (memmodel.Uniform),
// so for IRs built from a Config this always succeeds; Compile rejects a
// hand-built IR with per-pair thresholds.
func (ir *KernelIR) uniformSwap() (mask [4]uint8, thr uint64, ok bool) {
	thr = neverThr
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			t := ir.SwapThr[p][m]
			if t == neverThr {
				continue
			}
			if thr == neverThr {
				thr = t
			} else if t != thr {
				return [4]uint8{}, 0, false
			}
			mask[p] |= 1 << uint(m)
		}
	}
	return mask, thr, true
}

package core

import (
	"fmt"
	"math"

	"memreliability/internal/mc"
	"memreliability/internal/rng"
	"memreliability/internal/shift"
)

// This file holds the []bool reference implementation of the batched
// joined-model trial. NoBugBatch routes RNG consumption through the same
// sampleSegmentsInto routine the closures use, so it is bit-identical to
// the closure route by construction; the compiled engine (NoBugBits,
// compile.go) is in turn property-tested against it. Estimation entry
// points run on the compiled engine; NoBugBatch stays as the oracle.

// productOf computes Π_{i=1}^{n-1} 2^-i·Γᵢ — the Theorem 6.1 expectation
// integrand — from one draw of segment lengths, in log space.
func productOf(segments []int) float64 {
	logProduct := 0.0
	for i := 1; i <= len(segments)-1; i++ {
		logProduct += -float64(i) * float64(segments[i-1]) * math.Ln2
	}
	return math.Exp(logProduct)
}

// NoBugBatch returns the []bool-batched form of the full joined-process
// trial: out[i] reports whether the bug did NOT manifest (the event A)
// on the i-th trial. It is the reference implementation the compiled
// NoBugBits is property-tested against — kept deliberately on the
// shared sampleSegmentsInto routine, not the fast engine. The returned batch
// is safe for the harness's concurrent per-chunk calls — all captured
// state is immutable, and the reused segments buffer is local to each
// call.
func (c Config) NoBugBatch() (mc.BatchTrial, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	opts, err := c.settleOptions()
	if err != nil {
		return nil, err
	}
	cfg := c
	return func(src *rng.Source, out []bool) error {
		segments := make([]int, cfg.Threads)
		for i := range out {
			if err := cfg.sampleSegmentsInto(opts, segments, src); err != nil {
				return err
			}
			disjoint, err := shift.DisjointTrial(segments, src)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			out[i] = disjoint
		}
		return nil
	}, nil
}

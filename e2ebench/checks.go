package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
)

// tally counts operations and failed operations. An operation is one
// request, one grid cell or one output check; it fails at most once, on
// the first thing that is wrong with it.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failure messages
}

// op records one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.first) < 10 {
		t.first = append(t.first, err.Error())
		fmt.Fprintln(os.Stderr, "FAIL:", err)
	}
}

// ops records n successful operations at once (the cells of a checked
// artifact).
func (t *tally) ops(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		t.op(nil)
		return
	}
	t.op(fmt.Errorf(format, args...))
}

// httpOutcome classifies one HTTP exchange: a transport error, a
// non-2xx status, or a body that differs from the expected bytes (when
// want is non-nil) each make the operation fail.
func httpOutcome(transportErr error, status int, body, want []byte) error {
	switch {
	case transportErr != nil:
		return fmt.Errorf("transport: %w", transportErr)
	case status < 200 || status > 299:
		return fmt.Errorf("status %d: %.200s", status, body)
	case want != nil && !bytes.Equal(body, want):
		return fmt.Errorf("body differs from the first body for its key (%d vs %d bytes)", len(body), len(want))
	}
	return nil
}

// containmentAlpha is the per-side significance level of the exact
// binomial tail test, the level internal/diffcheck uses.
const containmentAlpha = 1e-9

// binomialConsistent reports whether k successes in n trials are
// consistent with a success probability somewhere in [lo, hi]: the
// lower tail P(X ≤ k) is largest at p = lo and the upper tail P(X ≥ k)
// at p = hi, and each must exceed containmentAlpha.
func binomialConsistent(k, n int, lo, hi float64) bool {
	return binomTail(k, n, lo, false) >= containmentAlpha &&
		binomTail(k, n, hi, true) >= containmentAlpha
}

// binomTail returns P(X ≤ k) (upper false) or P(X ≥ k) (upper true) for
// X ~ Binomial(n, p), summing the pmf in log space.
func binomTail(k, n int, p float64, upper bool) float64 {
	switch {
	case upper && k <= 0, !upper && k >= n:
		return 1
	case upper && k > n, !upper && k < 0:
		return 0
	case p <= 0:
		if upper {
			return 0
		}
		return 1
	case p >= 1:
		if upper {
			return 1
		}
		return 0
	}
	lo, hi := 0, k
	if upper {
		lo, hi = k, n
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	logP, log1mP := math.Log(p), math.Log1p(-p)
	sum := 0.0
	for i := lo; i <= hi; i++ {
		lgK, _ := math.Lgamma(float64(i + 1))
		lgNK, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgK - lgNK + float64(i)*logP + float64(n-i)*log1mP)
	}
	return math.Min(sum, 1)
}

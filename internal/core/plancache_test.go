package core

import (
	"math"
	"sync"
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// TestPlanCacheCompileOnce hammers one key from many goroutines and
// checks they all get the same Program with exactly one compile — the
// per-entry once under -race is the concurrent compile-once contract.
func TestPlanCacheCompileOnce(t *testing.T) {
	pc := NewPlanCache(8)
	cfg := DefaultConfig(memmodel.TSO(), 2)
	progs := make([]*Program, 16)
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prog, err := pc.Lookup(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			progs[g] = prog
		}(g)
	}
	wg.Wait()
	for g, prog := range progs {
		if prog != progs[0] {
			t.Fatalf("goroutine %d got a different Program for the same key", g)
		}
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d entries for one key", pc.Len())
	}
}

// TestPlanCacheCanonicalKey checks that equivalent normalized queries
// collide on one cache entry: the same config twice, and the IEEE
// negative-zero probability spelling of the same query.
func TestPlanCacheCanonicalKey(t *testing.T) {
	pc := NewPlanCache(8)
	cfg := Config{Model: memmodel.PSO(), Threads: 3, PrefixLen: 12, StoreProb: 0.5, SwapProb: 0}
	a, err := pc.Lookup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pc.Lookup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs compiled twice")
	}
	negZero := cfg
	negZero.SwapProb = math.Copysign(0, -1) // -0.0 validates and estimates as 0
	c, err := pc.Lookup(negZero)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatal("-0.0 probability did not collide with +0.0 on the canonical key")
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d entries for one canonical query", pc.Len())
	}
	// Distinct models with the same parameters must NOT collide.
	other := cfg
	other.Model = memmodel.WO()
	d, err := pc.Lookup(other)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("distinct models share a plan")
	}
}

// TestPlanCacheEviction checks LRU eviction at capacity and — the
// in-flight safety contract — that an evicted Program keeps producing
// bit-identical batches.
func TestPlanCacheEviction(t *testing.T) {
	pc := NewPlanCache(1)
	cfgA := DefaultConfig(memmodel.TSO(), 2)
	cfgA.PrefixLen = 8
	cfgB := DefaultConfig(memmodel.WO(), 3)
	cfgB.PrefixLen = 8
	progA, err := pc.Lookup(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Lookup(cfgB); err != nil { // evicts A
		t.Fatal(err)
	}
	if pc.Len() != 1 {
		t.Fatalf("cap-1 cache holds %d entries", pc.Len())
	}
	// The evicted program stays fully usable: identical to a fresh
	// compile of the same config.
	fresh, err := cfgA.BuildIR()
	if err != nil {
		t.Fatal(err)
	}
	progA2, err := fresh.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const trials = 300
	got := make([]uint64, mc.BitWords(trials))
	want := make([]uint64, mc.BitWords(trials))
	evictedSrc, freshSrc := rng.New(5), rng.New(5)
	if err := progA.FillBits(evictedSrc, got, trials); err != nil {
		t.Fatal(err)
	}
	if err := progA2.FillBits(freshSrc, want, trials); err != nil {
		t.Fatal(err)
	}
	for w := range got {
		if got[w] != want[w] {
			t.Fatalf("word %d: evicted program diverged from fresh compile", w)
		}
	}
	// Re-lookup of A compiles a new entry (B was the survivor).
	progA3, err := pc.Lookup(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if progA3 == progA {
		t.Fatal("evicted entry resurrected instead of recompiled")
	}
}

// TestPlanCacheSetCap checks capacity shrink evicts down to the new cap
// in LRU order.
func TestPlanCacheSetCap(t *testing.T) {
	pc := NewPlanCache(8)
	models := []memmodel.Model{memmodel.SC(), memmodel.TSO(), memmodel.PSO(), memmodel.WO()}
	for _, model := range models {
		if _, err := pc.Lookup(DefaultConfig(model, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", pc.Len())
	}
	pc.SetCap(2)
	if pc.Len() != 2 {
		t.Fatalf("after SetCap(2) cache holds %d entries", pc.Len())
	}
	// The two most recently used (PSO, WO) survive: their lookups hit.
	before := pc.Len()
	for _, model := range models[2:] {
		if _, err := pc.Lookup(DefaultConfig(model, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if pc.Len() != before {
		t.Fatal("most-recently-used entries were evicted by SetCap")
	}
}

// TestPlanCacheBadConfig checks invalid configs error through the cache
// without occupying a usable slot's program.
func TestPlanCacheBadConfig(t *testing.T) {
	pc := NewPlanCache(4)
	bad := Config{Model: memmodel.TSO(), Threads: 1, PrefixLen: 8}
	if _, err := pc.Lookup(bad); err == nil {
		t.Fatal("Lookup accepted threads=1")
	}
	// The error is cached (deterministic), not recompiled into success.
	if _, err := pc.Lookup(bad); err == nil {
		t.Fatal("cached lookup accepted threads=1")
	}
}

// TestCompiledNoBugBitsSharesPlans checks the package-level batch
// constructors route through the default plan cache: repeated
// constructions of the same query, bits or products, reuse one Program
// (observable via the cache length not growing).
func TestCompiledNoBugBitsSharesPlans(t *testing.T) {
	cfg := DefaultConfig(memmodel.SC(), 4)
	cfg.PrefixLen = 9
	if _, err := cfg.NoBugBits(); err != nil {
		t.Fatal(err)
	}
	before := DefaultPlanCache().Len()
	if _, err := cfg.NoBugBits(); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.ProductBatch(); err != nil {
		t.Fatal(err)
	}
	if DefaultPlanCache().Len() != before {
		t.Fatal("repeated batch construction grew the default plan cache")
	}
}

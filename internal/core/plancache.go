package core

import (
	"container/list"
	"math"
	"sync"
)

// The plan cache memoizes compiled Programs by canonical query key, so
// repeated queries (sweep cells, serve traffic, cluster dispatches that
// vary only seed/trials) pay the compile exactly once. Entries compile
// under a per-entry once outside the cache lock — concurrent first
// lookups of one key block on a single compile, never duplicate it — and
// eviction only forgets the cache's reference: a Program is immutable
// and owns its scratch pool, so in-flight batch calls on an evicted
// program remain valid.

// DefaultPlanCacheCap is the default compiled-plan capacity. Plans are
// small (a few closures plus pooled scratch); the cap exists to bound a
// pathological churn of distinct queries, not memory pressure.
const DefaultPlanCacheCap = 128

// planKey is the canonical identity of a compiled plan. Probabilities
// are keyed by their IEEE bits with negative zero normalized (+0.0 and
// -0.0 validate and estimate identically), and the model contributes
// both its canonical name and its relaxation mask, so two models that
// happen to share a name cannot alias each other's plans.
type planKey struct {
	model     string
	relaxMask uint16
	threads   int
	prefixLen int
	storeBits uint64
	swapBits  uint64
}

// planKeyOf builds the canonical key for a config.
func planKeyOf(c Config) planKey {
	var mask uint16
	for p := 0; p < 4; p++ {
		for m := 0; m < 4; m++ {
			if c.Model.Relaxed(kindType[p], kindType[m]) {
				mask |= 1 << uint(p*4+m)
			}
		}
	}
	return planKey{
		model:     c.Model.Name(),
		relaxMask: mask,
		threads:   c.Threads,
		prefixLen: c.PrefixLen,
		storeBits: math.Float64bits(c.StoreProb + 0), // +0 folds -0.0 into +0.0
		swapBits:  math.Float64bits(c.SwapProb + 0),
	}
}

// planEntry is one cache slot. The once runs BuildIR+Compile exactly
// once per entry lifetime; both the program and the error are cached.
type planEntry struct {
	key  planKey
	once sync.Once
	prog *Program
	err  error
}

// PlanCache is a concurrency-safe LRU cache of compiled Programs.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[planKey]*list.Element
	order   *list.List // front = most recently used; values are *planEntry
}

// NewPlanCache returns a cache holding at most capacity compiled plans
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[planKey]*list.Element),
		order:   list.New(),
	}
}

// Lookup returns the compiled program for the config, compiling it on
// first use. Concurrent lookups of the same key share one compile.
func (pc *PlanCache) Lookup(cfg Config) (*Program, error) {
	key := planKeyOf(cfg)
	pc.mu.Lock()
	el, ok := pc.entries[key]
	if ok {
		pc.order.MoveToFront(el)
	} else {
		el = pc.order.PushFront(&planEntry{key: key})
		pc.entries[key] = el
		for pc.order.Len() > pc.cap {
			oldest := pc.order.Back()
			pc.order.Remove(oldest)
			delete(pc.entries, oldest.Value.(*planEntry).key)
			corePlanCacheEvictions.Inc()
		}
	}
	e := el.Value.(*planEntry)
	pc.mu.Unlock()
	if ok {
		corePlanCacheHits.Inc()
	}
	e.once.Do(func() {
		ir, err := cfg.BuildIR()
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = ir.Compile()
	})
	return e.prog, e.err
}

// Len reports the number of cached plans (compiled or compiling).
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.order.Len()
}

// SetCap adjusts the capacity (minimum 1), evicting least-recently-used
// plans as needed. Evicted programs stay valid for holders.
func (pc *PlanCache) SetCap(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.cap = capacity
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Back()
		pc.order.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
		corePlanCacheEvictions.Inc()
	}
}

// defaultPlanCache serves every compiled-path entry point in the package.
var defaultPlanCache = NewPlanCache(DefaultPlanCacheCap)

// DefaultPlanCache returns the process-wide plan cache used by the
// batch constructors (NoBugBits, ProductBatch) and so by every Monte
// Carlo estimation route.
func DefaultPlanCache() *PlanCache { return defaultPlanCache }

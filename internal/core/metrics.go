package core

import (
	"memreliability/internal/obs"
)

// Compiler-engine metrics. Compiles happen once per distinct query (the
// plan cache's once), hits on every repeat lookup, evictions only when
// the LRU exceeds its cap — all lock-free atomic counters.
var (
	corePlansCompiled = obs.Default().Counter("core_plans_compiled_total",
		"Trial kernels monomorphized by the compiler engine.")
	corePlanCacheHits = obs.Default().Counter("core_plan_cache_hits_total",
		"Plan-cache lookups served by an existing entry.")
	corePlanCacheEvictions = obs.Default().Counter("core_plan_cache_evictions_total",
		"Compiled plans evicted by the LRU capacity bound.")
)

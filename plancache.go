package sim

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sim/internal/exec"
	"sim/internal/obs"
	"sim/internal/plan"
)

// PlanCacheStats reports session plan-cache activity.
type PlanCacheStats struct {
	Hits    uint64 // queries served from a cached plan
	Misses  uint64 // queries that paid parse+bind+optimize
	Entries int    // plans currently cached
}

// defaultPlanCacheSize is the plan-cache capacity when Config.PlanCacheSize
// is zero.
const defaultPlanCacheSize = 256

// planCache is an LRU of optimized query plans keyed by DML text. Hot
// repeated Retrieve statements skip parse/bind/optimize entirely; the
// database layer clears the cache whenever the schema (and with it the
// catalog every cached plan points into) is rebuilt. A nil *planCache is a
// valid always-miss cache (Config.PlanCacheSize < 0).
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // most recently used at front

	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	key  string
	p    *plan.Plan
	prog *exec.Program // compiled form, run by every execution of the plan
}

func newPlanCache(capacity int) *planCache {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultPlanCacheSize
	}
	return &planCache{
		cap: capacity,
		m:   make(map[string]*list.Element, capacity),
		lru: list.New(),
	}
}

func (c *planCache) get(key string) (*plan.Plan, *exec.Program, bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	en := el.Value.(*planEntry)
	return en.p, en.prog, true
}

func (c *planCache) put(key string, p *plan.Plan, prog *exec.Program) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		en := el.Value.(*planEntry)
		en.p, en.prog = p, prog
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*planEntry).key)
	}
	c.m[key] = c.lru.PushFront(&planEntry{key: key, p: p, prog: prog})
}

// clear drops every cached plan (schema change invalidation).
func (c *planCache) clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]*list.Element, c.cap)
	c.lru.Init()
}

// resetStats zeroes the hit/miss counters without touching cached plans.
func (c *planCache) resetStats() {
	if c == nil {
		return
	}
	c.hits.Store(0)
	c.misses.Store(0)
}

// registerMetrics publishes the cache counters; safe on a nil (disabled)
// cache, where the readers report zero.
func (c *planCache) registerMetrics(r *obs.Registry) {
	r.CounterFunc("sim_plan_cache_hits_total", "Queries served from a cached plan.",
		func() float64 {
			if c == nil {
				return 0
			}
			return float64(c.hits.Load())
		})
	r.CounterFunc("sim_plan_cache_misses_total", "Queries that paid parse+bind+optimize.",
		func() float64 {
			if c == nil {
				return 0
			}
			return float64(c.misses.Load())
		})
	r.GaugeFunc("sim_plan_cache_entries", "Plans currently cached.",
		func() float64 {
			if c == nil {
				return 0
			}
			c.mu.Lock()
			n := c.lru.Len()
			c.mu.Unlock()
			return float64(n)
		})
}

func (c *planCache) stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

package shard

import (
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
)

// Set is the persistent half of an execution's extraction layout: the
// partition and one extraction-cache slice per shard. An unsharded layout is
// a set of one shard. A Set outlives individual runs — a Task keeps one per
// (shard count, capacity) and every execution of that task warms the same
// slices. The slices' key spaces are disjoint by construction (every key is
// only ever routed to its owner shard), so a single second tier may safely
// back all of them.
type Set struct {
	Part   Partition
	Caches []*pipeline.Cache // per-shard slice; entries nil when capacity is 0
}

// NewSet builds the persistent cache slices for a partition: totalBytes of
// capacity split evenly across the shards. totalBytes <= 0 leaves every
// slice nil — sharded execution without caching. p.N < 1 is normalized to 1.
func NewSet(p Partition, totalBytes int64) *Set {
	if p.N < 1 {
		p.N = 1
	}
	s := &Set{Part: p, Caches: make([]*pipeline.Cache, p.N)}
	if totalBytes > 0 {
		per := totalBytes / int64(p.N)
		if per < 1 {
			per = 1
		}
		for i := range s.Caches {
			s.Caches[i] = pipeline.NewCache(per)
		}
	}
	return s
}

// SetTier attaches a second cache level (typically the durable disk tier)
// under every shard slice. Safe because the slices' key spaces are disjoint.
func (s *Set) SetTier(t pipeline.Tier) {
	if s == nil {
		return
	}
	for _, c := range s.Caches {
		c.SetTier(t)
	}
}

// Stats aggregates the accounting of all shard slices.
func (s *Set) Stats() pipeline.CacheStats {
	var agg pipeline.CacheStats
	if s == nil {
		return agg
	}
	for _, c := range s.Caches {
		if c == nil {
			continue
		}
		cs := c.Stats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Evictions += cs.Evictions
		agg.Bytes += cs.Bytes
		agg.Entries += cs.Entries
		agg.TierHits += cs.TierHits
	}
	return agg
}

// HitRate returns the aggregate hit fraction across all slices, 0 before any
// lookup.
func (s *Set) HitRate() float64 {
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}

// cache returns shard i's cache slice: nil for a nil set or an uncached one.
func (s *Set) cache(i int) *pipeline.Cache {
	if s == nil || i >= len(s.Caches) {
		return nil
	}
	return s.Caches[i]
}

// Group is the extraction frontend of one execution: one pipelined engine
// per shard of a Set, each owning its cache slice and a slice of the run's
// worker budget. Every executor drives the same type — an unsharded run is
// a group of one shard — and announcements and resolutions are routed to
// the owning shard. Because the consumer still resolves documents in
// canonical stream order, the merged tuple stream is bit-identical at any
// shard count (the per-shard reorder buffers ARE the gather step). All
// methods are called from the executor's single stepping goroutine; the
// accounting triple Resolve returns is a pure function of the resolution
// order, never of worker scheduling.
type Group struct {
	part     Partition
	engines  []*pipeline.Engine
	resolved []int // documents resolved per shard this execution
	primed   []int // resume floor: suppress speculation below these counts
}

// NewGroup builds the per-execution engines over a Set, and is the one
// place that decides whether an execution gets an extraction frontend at
// all. A nil set is one uncached shard. A single shard runs exactly
// execWorkers workers (below 1 = no speculation); when it has neither a
// cache nor workers NewGroup returns nil and the executors extract inline.
// Two or more shards split the budget as WorkersPerShard (each shard always
// speculates with at least one worker — with shards, the shards are the
// parallelism). extract must be a pure function of the key.
func NewGroup(set *Set, execWorkers int, extract func(pipeline.Key) []relation.Tuple) *Group {
	var part Partition
	if set != nil {
		part = set.Part
	}
	if part.N < 2 {
		if execWorkers < 1 && set.cache(0) == nil {
			return nil
		}
		part.N = 1
	} else {
		execWorkers = WorkersPerShard(execWorkers, part.N)
	}
	g := &Group{
		part:     part,
		engines:  make([]*pipeline.Engine, part.N),
		resolved: make([]int, part.N),
		primed:   make([]int, part.N),
	}
	for i := range g.engines {
		g.engines[i] = pipeline.NewEngine(set.cache(i), execWorkers, extract)
	}
	return g
}

// owner returns the shard index owning k.
func (g *Group) owner(k pipeline.Key) int { return g.part.Owner(k.Side, k.DocID) }

// HasCache reports whether any shard engine has a cache slice attached.
func (g *Group) HasCache() bool {
	if g == nil {
		return false
	}
	for _, e := range g.engines {
		if e.HasCache() {
			return true
		}
	}
	return false
}

// Lookahead returns how many upcoming documents to announce per step: the
// sum of the per-shard windows, 0 without speculation. Hash partitioning
// spreads consecutive stream documents across shards, so a lookahead this
// deep keeps every shard's window fed.
func (g *Group) Lookahead() int {
	if g == nil {
		return 0
	}
	total := 0
	for _, e := range g.engines {
		total += e.Lookahead()
	}
	return total
}

// Announce routes a speculative extraction to the key's owner shard. While a
// shard is below its primed resume floor the announcement is swallowed
// (reported accepted): a resumed run re-resolves that prefix from the warm
// cache slices, and re-speculating work a previous run already did would
// only burn workers. The single-engine stop-at-first-refusal discipline
// carries over unchanged — a refusal from any owner stops the caller's
// announce pass for this step.
func (g *Group) Announce(k pipeline.Key) bool {
	s := g.owner(k)
	if g.resolved[s] < g.primed[s] {
		return true
	}
	return g.engines[s].Announce(k)
}

// Resolve routes the canonical resolution of k to its owner shard and
// advances that shard's progress counter. Called by the consumer in stream
// order, so the counters — like everything else the consumer touches — are
// deterministic.
func (g *Group) Resolve(k pipeline.Key, inline func() []relation.Tuple) ([]relation.Tuple, bool, int) {
	s := g.owner(k)
	g.resolved[s]++
	return g.engines[s].Resolve(k, inline)
}

// Drop routes a speculation abandonment to the key's owner shard.
func (g *Group) Drop(k pipeline.Key) {
	g.engines[g.owner(k)].Drop(k)
}

// Progress returns a copy of the per-shard resolution counts — the
// checkpointable answer to "how far did each shard get". Deterministic
// because resolutions happen in canonical stream order. It is nil below two
// shards, so unsharded checkpoints keep their original encoding.
func (g *Group) Progress() []int {
	if g == nil || len(g.resolved) < 2 {
		return nil
	}
	return append([]int(nil), g.resolved...)
}

// Prime installs a resume floor from a checkpoint's per-shard progress:
// until a shard's resolution count catches back up to its floor, its
// announcements are suppressed, so replaying up to the checkpoint skips the
// speculative re-extraction of work completed shards already did (the
// resolutions come from the warm cache slices instead). A progress vector
// recorded under a different shard count is ignored — replay is still
// correct without priming, just less lazy.
func (g *Group) Prime(progress []int) {
	if g == nil || len(progress) != len(g.primed) {
		return
	}
	copy(g.primed, progress)
}

package shard

import (
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
)

// Group is the extraction frontend of one execution: one pipelined engine
// over the task's one extraction cache, and the per-shard resolution counts
// an adaptive checkpoint carries. A shard is a share of the engine's worker
// pool plus a resume counter: documents resolve through the same cache at
// any shard count, so which documents stay warm — and with it every hit,
// miss and eviction — never depends on the shard count. Every executor
// drives the same type (an unsharded run is a group of one shard), and the
// consumer resolves documents in canonical stream order, so the tuple stream
// is bit-identical at any shard count. All methods are called from the
// executor's single stepping goroutine.
type Group struct {
	part     Partition
	engine   *pipeline.Engine
	resolved []int // documents resolved per shard this execution
	primed   []int // resume floor: suppress speculation below these counts
}

// NewGroup builds an execution's frontend over cache (nil = uncached), and
// is the one place that decides whether an execution gets one at all. A
// single shard runs exactly execWorkers workers (below 1 = no speculation);
// when it has neither a cache nor workers NewGroup returns nil and the
// executors extract inline. Two or more shards run WorkersPerShard workers
// per shard (each shard speculates with at least one worker — with shards,
// the shards are the parallelism). extract must be a pure function of the
// key.
func NewGroup(shards int, cache *pipeline.Cache, execWorkers int, extract func(pipeline.Key) []relation.Tuple) *Group {
	if shards < 2 {
		if execWorkers < 1 && cache == nil {
			return nil
		}
		shards = 1
	} else {
		execWorkers = WorkersPerShard(execWorkers, shards) * shards
	}
	return &Group{
		part:     Partition{N: shards},
		engine:   pipeline.NewEngine(cache, execWorkers, extract),
		resolved: make([]int, shards),
		primed:   make([]int, shards),
	}
}

// HasCache reports whether the group extracts through a cache.
func (g *Group) HasCache() bool { return g != nil && g.engine.HasCache() }

// Lookahead returns how many upcoming documents to announce per step, 0
// without speculation (see pipeline.Engine.Lookahead).
func (g *Group) Lookahead() int {
	if g == nil {
		return 0
	}
	return g.engine.Lookahead()
}

// Announce schedules a speculative extraction of k. While k's owner shard is
// below its primed resume floor the announcement is swallowed (reported
// accepted): a resumed run re-resolves that prefix from the warm cache, and
// re-speculating work a previous run already did would only burn workers.
// A false return is the engine's window-full refusal: the caller stops its
// announce pass for this step.
func (g *Group) Announce(k pipeline.Key) bool {
	s := g.part.Owner(k.Side, k.DocID)
	if g.resolved[s] < g.primed[s] {
		return true
	}
	return g.engine.Announce(k)
}

// Resolve returns k's tuples through the engine and advances the owner
// shard's progress counter. Called by the consumer in stream order, so the
// counters — like everything else the consumer touches — are deterministic.
func (g *Group) Resolve(k pipeline.Key, inline func() []relation.Tuple) ([]relation.Tuple, bool, int) {
	g.resolved[g.part.Owner(k.Side, k.DocID)]++
	return g.engine.Resolve(k, inline)
}

// Drop abandons any speculative extraction of k.
func (g *Group) Drop(k pipeline.Key) { g.engine.Drop(k) }

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
// speculative re-extraction of work the interrupted run already did (the
// resolutions come from the warm cache instead). A progress vector recorded
// under a different shard count is ignored — replay is still correct
// without priming, just less lazy.
func (g *Group) Prime(progress []int) {
	if g == nil || len(progress) != len(g.primed) {
		return
	}
	copy(g.primed, progress)
}

// Package pipeline implements the pipelined parallel execution engine
// behind the join executors: a bounded worker pool that speculatively runs
// the pure extraction function over announced upcoming documents, a
// reorder buffer that hands the results back to the single consumer
// goroutine in stream order, and a process-wide byte-bounded extraction
// cache shared across pilot runs, adaptive phases, and plans.
//
// Determinism is the design constraint everything here serves: only the
// side-effect-free extraction computation runs on workers. Every stateful
// operation — retrieval pulls, document fetches (and with them the seeded
// fault-injection streams), retries, cost-model accounting, trace emission,
// and every cache mutation — stays on the consumer goroutine in exactly the
// order the sequential path performs it. Output tuples, cost-model time,
// traces, and snapshots are therefore bit-identical for any worker count,
// including zero (the join package's golden-trace property test pins this).
package pipeline

import (
	"container/list"
	"sync"

	"joinopt/internal/relation"
)

// Key identifies one extraction result: a document of one database side
// processed by that side's IE system at a specific tuning θ. Distinct θ
// settings emit different tuple sets from the same document, so the knob is
// part of the identity.
type Key struct {
	Side  int
	DocID int
	Theta float64
}

// CacheStats is a point-in-time snapshot of a cache's accounting.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64
	Entries   int
	// TierHits is the subset of Hits served by the second tier (entries not
	// resident in memory at lookup time — warmed lazily from disk).
	TierHits int64
}

// Tier is a second cache level behind the in-memory LRU — typically a disk
// store surviving process restarts. Load returns the tuples persisted for a
// key; Store persists them. Both are best-effort: a tier that fails (or
// distrusts what it read back) simply reports a miss or drops the write —
// the memory tier keeps working either way. Implementations must be safe
// for concurrent use; returned slices must not be modified by the tier
// afterwards.
type Tier interface {
	Load(k Key) ([]relation.Tuple, bool)
	Store(k Key, tuples []relation.Tuple)
}

// entry is one cached extraction with its byte-size estimate.
type entry struct {
	key    Key
	tuples []relation.Tuple
	bytes  int64
}

// Cache is a byte-bounded LRU map from extraction keys to tuple slices.
// Reads and writes go through the consumer goroutine of each execution in
// consumption order, so eviction order — and with it every hit/miss — is
// independent of worker scheduling; the mutex only makes the cache safe to
// share across executions (pilot, re-optimization phases, plans).
//
// Cached slices are returned by reference and must not be modified.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	lru      *list.List // front = most recent; values are *entry
	byKey    map[Key]*list.Element
	bytes    int64

	hits, misses, evictions, tierHits int64

	tier Tier
}

// NewCache builds an extraction cache holding at most maxBytes of estimated
// tuple payload (minimum one entry is always admitted). maxBytes <= 0
// returns nil — the disabled cache, on which every method no-ops.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{maxBytes: maxBytes, lru: list.New(), byKey: map[Key]*list.Element{}}
}

// entryBytes estimates the resident size of one cached extraction: a fixed
// per-entry overhead (key, list element, map slot) plus the tuple strings.
func entryBytes(tuples []relation.Tuple) int64 {
	b := int64(96)
	for _, t := range tuples {
		b += int64(len(t.A1)+len(t.A2)) + 48
	}
	return b
}

// SetTier attaches (or, with nil, detaches) a second cache level consulted
// on memory misses and written through on Put. Attach before executions
// start sharing the cache; the tier pointer itself is then read-only.
func (c *Cache) SetTier(t Tier) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tier = t
}

// Get returns the cached tuples for k, counting the hit or miss. A memory
// miss falls through to the tier (outside the lock — tier IO must not stall
// other executions); a tier hit is installed into the memory LRU and counts
// as a hit, so lazily warmed entries surface in the ordinary hit metrics.
func (c *Cache) Get(k Key) ([]relation.Tuple, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.byKey[k]
	if ok {
		c.hits++
		c.lru.MoveToFront(el)
		tuples := el.Value.(*entry).tuples
		c.mu.Unlock()
		return tuples, true
	}
	tier := c.tier
	if tier == nil {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	tuples, ok := tier.Load(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.tierHits++
	// Another execution may have installed k while the lock was dropped;
	// install dedupes on key either way.
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry).tuples, true
	}
	c.install(k, tuples)
	return tuples, true
}

// install inserts k's tuples into the memory LRU, evicting past the byte
// bound. Callers hold c.mu.
func (c *Cache) install(k Key, tuples []relation.Tuple) (evicted int) {
	e := &entry{key: k, tuples: tuples, bytes: entryBytes(tuples)}
	c.byKey[k] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		old := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.byKey, old.key)
		c.bytes -= old.bytes
		c.evictions++
		evicted++
	}
	return evicted
}

// Contains reports whether k is cached without touching the hit/miss
// accounting or the recency order — the engine's announce path uses it to
// avoid speculating on documents already paid for.
func (c *Cache) Contains(k Key) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[k]
	return ok
}

// Put inserts k's tuples, evicting least-recently-used entries past the
// byte bound, and returns how many entries were evicted. An oversized
// single entry is still admitted (and evicts everything else), so the
// hottest document is never un-cacheable. Re-putting an existing key
// refreshes its recency. Inserts write through to the tier (outside the
// lock), so a restart can warm from everything ever paid for — eviction
// only sheds the memory copy.
func (c *Cache) Put(k Key, tuples []relation.Tuple) (evicted int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return 0
	}
	evicted = c.install(k, tuples)
	tier := c.tier
	c.mu.Unlock()
	if tier != nil {
		tier.Store(k, tuples)
	}
	return evicted
}

// Stats snapshots the cache accounting.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: c.lru.Len(), TierHits: c.tierHits,
	}
}

// HitRate returns the observed hit fraction so far (0 before any lookup).
// The optimizer feeds it into its effective-cost predictions.
func (c *Cache) HitRate() float64 {
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

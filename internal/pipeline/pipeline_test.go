package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"joinopt/internal/relation"
)

func tuples(n int, tag string) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{A1: fmt.Sprintf("%s-a%d", tag, i), A2: fmt.Sprintf("%s-b%d", tag, i)}
	}
	return out
}

func TestNewCacheDisabled(t *testing.T) {
	for _, b := range []int64{0, -1} {
		if c := NewCache(b); c != nil {
			t.Fatalf("NewCache(%d) = %v, want nil", b, c)
		}
	}
	// Every method must be a no-op on the disabled cache.
	var c *Cache
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil cache reported a hit")
	}
	if c.Contains(Key{}) {
		t.Fatal("nil cache reported containment")
	}
	if n := c.Put(Key{}, nil); n != 0 {
		t.Fatalf("nil cache evicted %d", n)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	c := NewCache(1 << 20)
	k1 := Key{Side: 0, DocID: 1, Theta: 0.4}
	k2 := Key{Side: 1, DocID: 1, Theta: 0.4}
	if _, ok := c.Get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k1, tuples(3, "x"))
	if got, ok := c.Get(k1); !ok || len(got) != 3 {
		t.Fatalf("Get after Put: ok=%v len=%d", ok, len(got))
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("hit on a different side's key")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Evictions != 0 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 2 misses / 1 entry", s)
	}
}

func TestCacheContainsNoAccounting(t *testing.T) {
	c := NewCache(1 << 20)
	k := Key{DocID: 7, Theta: 0.8}
	if c.Contains(k) {
		t.Fatal("empty cache contains key")
	}
	c.Put(k, tuples(1, "x"))
	if !c.Contains(k) {
		t.Fatal("cache lost its key")
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("Contains touched accounting: %+v", s)
	}
}

func TestCacheEvictsAtByteBound(t *testing.T) {
	payload := tuples(4, "x")
	per := entryBytes(payload)
	c := NewCache(3 * per) // room for exactly three entries
	for i := 0; i < 5; i++ {
		c.Put(Key{DocID: i}, payload)
	}
	s := c.Stats()
	if s.Entries != 3 {
		t.Fatalf("entries %d, want 3 (bound %d bytes, %d per entry)", s.Entries, 3*per, per)
	}
	if s.Bytes > 3*per {
		t.Fatalf("resident bytes %d over bound %d", s.Bytes, 3*per)
	}
	if s.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", s.Evictions)
	}
	// LRU order: 0 and 1 evicted, 2..4 resident.
	for i := 0; i < 5; i++ {
		if want := i >= 2; c.Contains(Key{DocID: i}) != want {
			t.Errorf("doc %d cached=%v, want %v", i, !want, want)
		}
	}
}

func TestCacheOversizedEntryAdmitted(t *testing.T) {
	small := tuples(1, "s")
	big := tuples(100, "big")
	c := NewCache(entryBytes(small) + 1)
	c.Put(Key{DocID: 1}, small)
	if n := c.Put(Key{DocID: 2}, big); n != 1 {
		t.Fatalf("oversized put evicted %d, want 1", n)
	}
	if !c.Contains(Key{DocID: 2}) || c.Contains(Key{DocID: 1}) {
		t.Fatal("oversized entry must be admitted, evicting the rest")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries %d, want the single oversized entry", s.Entries)
	}
}

func TestCacheGetRefreshesRecency(t *testing.T) {
	payload := tuples(2, "x")
	c := NewCache(2 * entryBytes(payload))
	c.Put(Key{DocID: 1}, payload)
	c.Put(Key{DocID: 2}, payload)
	c.Get(Key{DocID: 1}) // 1 becomes most recent; 2 is now LRU
	c.Put(Key{DocID: 3}, payload)
	if !c.Contains(Key{DocID: 1}) || c.Contains(Key{DocID: 2}) {
		t.Fatal("Get must refresh recency: expected doc 2 evicted, doc 1 kept")
	}
}

func TestNewEngineDisabled(t *testing.T) {
	if e := NewEngine(nil, 0, nil); e != nil {
		t.Fatalf("no cache, no workers: engine %v, want nil", e)
	}
	var e *Engine
	if e.HasCache() || e.Lookahead() != 0 {
		t.Fatal("nil engine must report fully inactive")
	}
	e.Announce(Key{}) // must not panic
	got, hit, ev := e.Resolve(Key{DocID: 1}, func() []relation.Tuple { return tuples(2, "x") })
	if hit || ev != 0 || len(got) != 2 {
		t.Fatalf("nil engine Resolve = (%d tuples, hit=%v, evicted=%d), want inline", len(got), hit, ev)
	}
}

func TestEngineCacheOnly(t *testing.T) {
	e := NewEngine(NewCache(1<<20), 0, nil)
	if e == nil || !e.HasCache() {
		t.Fatal("cache-only engine must be active")
	}
	if e.Lookahead() != 0 {
		t.Fatalf("cache-only lookahead %d, want 0 (no speculation)", e.Lookahead())
	}
	e.Announce(Key{DocID: 1}) // no-op without workers
	calls := 0
	inline := func() []relation.Tuple { calls++; return tuples(2, "x") }
	k := Key{DocID: 1, Theta: 0.4}
	if _, hit, _ := e.Resolve(k, inline); hit {
		t.Fatal("first resolution reported a hit")
	}
	got, hit, _ := e.Resolve(k, inline)
	if !hit || len(got) != 2 {
		t.Fatalf("second resolution: hit=%v len=%d, want cached", hit, len(got))
	}
	if calls != 1 {
		t.Fatalf("inline extraction ran %d times, want 1", calls)
	}
}

func TestEngineSpeculation(t *testing.T) {
	var mu sync.Mutex
	extracted := map[Key]int{}
	extract := func(k Key) []relation.Tuple {
		mu.Lock()
		extracted[k]++
		mu.Unlock()
		return tuples(k.DocID%3, fmt.Sprintf("d%d", k.DocID))
	}
	e := NewEngine(nil, 4, extract)
	if e.HasCache() {
		t.Fatal("no cache attached")
	}
	if e.Lookahead() != DefaultWindow+batchSize {
		t.Fatalf("lookahead %d, want window %d plus one batch of probe headroom", e.Lookahead(), DefaultWindow)
	}
	// Announce a batch (with duplicates), then resolve in order.
	for i := 0; i < 10; i++ {
		e.Announce(Key{DocID: i})
		e.Announce(Key{DocID: i})
	}
	for i := 0; i < 10; i++ {
		k := Key{DocID: i}
		got, hit, ev := e.Resolve(k, func() []relation.Tuple { return extract(k) })
		if hit || ev != 0 {
			t.Fatalf("doc %d: hit=%v evicted=%d without a cache", i, hit, ev)
		}
		if len(got) != i%3 {
			t.Fatalf("doc %d: %d tuples, want %d", i, len(got), i%3)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for k, n := range extracted {
		if n != 1 {
			t.Errorf("key %+v extracted %d times, want exactly once", k, n)
		}
	}
}

func TestEngineUnannouncedFallsBackInline(t *testing.T) {
	e := NewEngine(nil, 2, func(Key) []relation.Tuple { t.Fatal("worker extraction must not run"); return nil })
	got, hit, _ := e.Resolve(Key{DocID: 42}, func() []relation.Tuple { return tuples(1, "inline") })
	if hit || len(got) != 1 {
		t.Fatalf("unannounced resolve: hit=%v len=%d, want inline result", hit, len(got))
	}
}

func TestEngineWindowBound(t *testing.T) {
	block := make(chan struct{})
	e := NewEngine(nil, 1, func(Key) []relation.Tuple { <-block; return nil })
	for i := 0; i < 3*DefaultWindow; i++ {
		e.Announce(Key{DocID: i})
	}
	e.mu.Lock()
	inflight := len(e.inflight)
	e.mu.Unlock()
	if inflight > DefaultWindow {
		t.Fatalf("%d announcements in flight, window is %d", inflight, DefaultWindow)
	}
	close(block)
	for i := 0; i < 3*DefaultWindow; i++ {
		k := Key{DocID: i}
		e.Resolve(k, func() []relation.Tuple { return nil })
	}
}

func TestEngineSkipsAnnouncingCachedKeys(t *testing.T) {
	cache := NewCache(1 << 20)
	k := Key{DocID: 5, Theta: 0.4}
	cache.Put(k, tuples(2, "warm"))
	e := NewEngine(cache, 2, func(Key) []relation.Tuple { t.Error("cached key must not be speculated"); return nil })
	e.Announce(k)
	got, hit, _ := e.Resolve(k, func() []relation.Tuple { t.Error("cached key must not extract inline"); return nil })
	if !hit || len(got) != 2 {
		t.Fatalf("warm key: hit=%v len=%d", hit, len(got))
	}
}

// TestEngineGoroutineBound is the regression guard for the old
// goroutine-per-announcement scheme: announcing a full window of documents
// must add at most `workers` goroutines, because speculation runs on a
// persistent dispatcher pool, not on per-document spawns.
func TestEngineGoroutineBound(t *testing.T) {
	const workers = 4
	release := make(chan struct{})
	e := NewEngine(nil, workers, func(Key) []relation.Tuple { <-release; return nil })
	base := runtime.NumGoroutine()
	for i := 0; i < 3*DefaultWindow; i++ {
		e.Announce(Key{DocID: i})
	}
	// Every submitted batch is now queued and the pool is saturated: the
	// goroutine count must be bounded by the pool size, never by the number
	// of announcements.
	if n := runtime.NumGoroutine(); n > base+workers {
		t.Fatalf("%d goroutines after announcing %d docs (started from %d): pool of %d leaked per-doc goroutines",
			n, 3*DefaultWindow, base, workers)
	}
	close(release)
	for i := 0; i < 3*DefaultWindow; i++ {
		e.Resolve(Key{DocID: i}, func() []relation.Tuple { return nil })
	}
	// After the run drains, the workers must have exited on their own — the
	// engine has no Close, so a lingering pool would leak per execution.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the run drained, started from %d: workers did not exit", n, base)
	}
}

// TestEngineDropSkipsPendingWork pins the prompt-release half of Drop: a
// dropped speculation no worker has started is skipped outright — the
// extraction never runs and the consumer falls back to inline.
func TestEngineDropSkipsPendingWork(t *testing.T) {
	var mu sync.Mutex
	extracted := map[Key]int{}
	release := make(chan struct{})
	e := NewEngine(nil, 1, func(k Key) []relation.Tuple {
		if k.DocID == 0 {
			<-release // hold the only worker inside doc 0
		}
		mu.Lock()
		extracted[k]++
		mu.Unlock()
		return nil
	})
	for i := 0; i < batchSize; i++ { // one full batch: docs 0..7, worker blocks on 0
		e.Announce(Key{DocID: i})
	}
	dropped := Key{DocID: batchSize - 1}
	e.Drop(dropped) // still pending: the worker is held inside doc 0
	close(release)
	inlined := false
	for i := 0; i < batchSize; i++ {
		k := Key{DocID: i}
		e.Resolve(k, func() []relation.Tuple {
			if k == dropped {
				inlined = true
			}
			return nil
		})
	}
	mu.Lock()
	defer mu.Unlock()
	if n := extracted[dropped]; n != 0 {
		t.Fatalf("dropped pending key extracted %d times, want the worker to skip it", n)
	}
	if !inlined {
		t.Fatal("dropped key did not fall back to inline extraction")
	}
}

// TestEngineReannounceAfterDropAdoptsOrphan pins the no-double-extraction
// half of Drop: re-announcing a key whose dropped speculation is still in
// flight must re-adopt that speculation, not schedule a second extraction.
func TestEngineReannounceAfterDropAdoptsOrphan(t *testing.T) {
	var mu sync.Mutex
	extracted := map[Key]int{}
	release := make(chan struct{})
	e := NewEngine(nil, 1, func(k Key) []relation.Tuple {
		if k.DocID == 0 {
			<-release
		}
		mu.Lock()
		extracted[k]++
		mu.Unlock()
		return tuples(1, fmt.Sprintf("d%d", k.DocID))
	})
	for i := 0; i < batchSize; i++ {
		e.Announce(Key{DocID: i})
	}
	victim := Key{DocID: 3}
	e.Drop(victim)     // orphaned while the worker is held on doc 0
	e.Announce(victim) // must re-adopt the orphan, not extract twice
	close(release)
	for i := 0; i < batchSize; i++ {
		got, _, _ := e.Resolve(Key{DocID: i}, func() []relation.Tuple {
			t.Errorf("doc %d resolved inline; the adopted speculation should serve it", i)
			return nil
		})
		if len(got) != 1 {
			t.Fatalf("doc %d: %d tuples, want 1", i, len(got))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for k, n := range extracted {
		if n != 1 {
			t.Errorf("key %+v extracted %d times, want exactly once", k, n)
		}
	}
}

// TestEngineResolveCollectsOrphan covers the resolution path of the same
// property: when a dropped speculation's key is resolved (no re-announce),
// the orphan's result is collected instead of extracting inline a second
// time.
func TestEngineResolveCollectsOrphan(t *testing.T) {
	var mu sync.Mutex
	extracted := map[Key]int{}
	e := NewEngine(nil, 2, func(k Key) []relation.Tuple {
		mu.Lock()
		extracted[k]++
		mu.Unlock()
		return tuples(2, fmt.Sprintf("d%d", k.DocID))
	})
	for i := 0; i < batchSize; i++ {
		e.Announce(Key{DocID: i})
	}
	victim := Key{DocID: 5}
	e.Drop(victim)
	got, hit, _ := e.Resolve(victim, func() []relation.Tuple {
		// Inline fallback is legal only if the orphan was skipped before it
		// ran; in that case it must be the sole extraction.
		return tuples(2, "inline")
	})
	if hit || len(got) != 2 {
		t.Fatalf("resolve after drop: hit=%v len=%d", hit, len(got))
	}
	for i := 0; i < batchSize; i++ {
		e.Resolve(Key{DocID: i}, func() []relation.Tuple { return nil })
	}
	mu.Lock()
	defer mu.Unlock()
	if n := extracted[victim]; n > 1 {
		t.Fatalf("dropped key extracted %d times after resolve, want at most once", n)
	}
}

// TestEngineWindowGrowsUnderStarvation drives the executor announce/resolve
// rhythm with slow extractions and window-limited announcements: the
// adaptive controller must widen the window beyond its initial bound.
func TestEngineWindowGrowsUnderStarvation(t *testing.T) {
	e := NewEngine(nil, 4, func(Key) []relation.Tuple {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	// NewEngine caps growth by GOMAXPROCS; lift the cap so the controller's
	// grow signal is observable regardless of the host's core count.
	e.maxWindow = MaxWindow
	for i := 0; i < 3*DefaultWindow; i++ {
		// Announce the sliding lookahead range past the cursor, as the
		// executors do each step; dedup makes re-announcements free.
		for j := i; j < i+e.Lookahead(); j++ {
			e.Announce(Key{DocID: j})
		}
		e.Resolve(Key{DocID: i}, func() []relation.Tuple { return nil })
	}
	if e.window <= DefaultWindow {
		t.Fatalf("window %d after sustained waits with window-limited announcements, want > %d", e.window, DefaultWindow)
	}
}

// TestEngineWindowShrinksWhenConsumerLags covers the opposite signal:
// extractions finish instantly and pile up while the consumer never blocks,
// so speculative depth is wasted and the window must contract.
func TestEngineWindowShrinksWhenConsumerLags(t *testing.T) {
	e := NewEngine(nil, 4, func(Key) []relation.Tuple { return nil })
	for i := 0; i < DefaultWindow; i++ {
		e.Announce(Key{DocID: i})
	}
	// Wait until every announced extraction has completed, so the backlog
	// peak reaches the full window before any resolution.
	for deadline := time.Now().Add(2 * time.Second); ; {
		e.mu.Lock()
		backlog := e.doneBacklog
		e.mu.Unlock()
		if backlog >= DefaultWindow || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < DefaultWindow; i++ {
		e.Resolve(Key{DocID: i}, func() []relation.Tuple { return nil })
	}
	if e.window >= DefaultWindow {
		t.Fatalf("window %d after an all-done backlog with zero waits, want < %d", e.window, DefaultWindow)
	}
	if e.window < MinWindow {
		t.Fatalf("window %d shrank below MinWindow %d", e.window, MinWindow)
	}
}

// TestEngineConcurrentResolve exercises the announce/resolve protocol with
// many in-flight extractions so `go test -race` can observe the
// synchronization between worker goroutines and the consumer.
func TestEngineConcurrentResolve(t *testing.T) {
	cache := NewCache(1 << 16)
	e := NewEngine(cache, 8, func(k Key) []relation.Tuple {
		return tuples(1+k.DocID%5, fmt.Sprintf("d%d", k.DocID))
	})
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			if i%7 == 0 {
				e.Announce(Key{DocID: i + 13}) // prefetch ahead of consumption
			}
			e.Announce(Key{DocID: i})
			k := Key{DocID: i}
			got, _, _ := e.Resolve(k, func() []relation.Tuple {
				return tuples(1+k.DocID%5, fmt.Sprintf("d%d", k.DocID))
			})
			if want := 1 + i%5; len(got) != want {
				t.Fatalf("round %d doc %d: %d tuples, want %d", round, i, len(got), want)
			}
		}
	}
}

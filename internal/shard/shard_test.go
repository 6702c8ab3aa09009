package shard

import (
	"math"
	"testing"

	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
)

// TestOwnerDeterministicAndInRange: ownership is a pure function — repeated
// calls agree — and always lands inside [0, N).
func TestOwnerDeterministicAndInRange(t *testing.T) {
	for _, kind := range []Kind{KindHash, KindRange} {
		for _, n := range []int{1, 2, 3, 4, 8, 16} {
			p := Partition{N: n, Kind: kind}
			for side := 0; side < 2; side++ {
				for doc := 0; doc < 500; doc++ {
					s := p.Owner(side, doc, 500)
					if s < 0 || (n >= 2 && s >= n) || (n < 2 && s != 0) {
						t.Fatalf("%s N=%d: Owner(%d,%d) = %d out of range", kind, n, side, doc, s)
					}
					if again := p.Owner(side, doc, 500); again != s {
						t.Fatalf("%s N=%d: Owner(%d,%d) flapped %d -> %d", kind, n, side, doc, s, again)
					}
				}
			}
		}
	}
}

// TestOwnerHashBalance: hash partitioning spreads a contiguous docID range
// roughly evenly — no shard more than 50% above the fair share.
func TestOwnerHashBalance(t *testing.T) {
	const docs, n = 4000, 8
	p := Partition{N: n, Kind: KindHash}
	counts := make([]int, n)
	for doc := 0; doc < docs; doc++ {
		counts[p.Owner(0, doc, docs)]++
	}
	fair := docs / n
	for s, c := range counts {
		if c > fair*3/2 || c < fair/2 {
			t.Errorf("shard %d owns %d docs, fair share %d", s, c, fair)
		}
	}
}

// TestOwnerRangeContiguous: range partitioning assigns monotone, contiguous
// blocks covering every shard.
func TestOwnerRangeContiguous(t *testing.T) {
	const docs, n = 100, 4
	p := Partition{N: n, Kind: KindRange}
	prev := 0
	seen := make(map[int]bool)
	for doc := 0; doc < docs; doc++ {
		s := p.Owner(0, doc, docs)
		if s < prev {
			t.Fatalf("range ownership not monotone: doc %d on shard %d after shard %d", doc, s, prev)
		}
		prev = s
		seen[s] = true
	}
	if len(seen) != n {
		t.Errorf("range partition used %d of %d shards", len(seen), n)
	}
	if p.Owner(0, -1, docs) != 0 || p.Owner(0, docs+5, docs) != n-1 {
		t.Error("out-of-range docIDs must clamp to the edge shards")
	}
	if p.Owner(0, 10, 0) != 0 {
		t.Error("empty database must own everything on shard 0")
	}
}

func TestWorkersPerShard(t *testing.T) {
	cases := []struct{ workers, shards, want int }{
		{0, 4, 1}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {8, 2, 4},
		{3, 0, 3}, {0, 0, 1},
	}
	for _, c := range cases {
		if got := WorkersPerShard(c.workers, c.shards); got != c.want {
			t.Errorf("WorkersPerShard(%d, %d) = %d, want %d", c.workers, c.shards, got, c.want)
		}
	}
}

// TestEffectiveSpeedup pins the measured scaling curve: identity below two
// shards, monotone, sublinear, and above the 2.5× benchmark gate at 4.
func TestEffectiveSpeedup(t *testing.T) {
	if EffectiveSpeedup(0) != 1 || EffectiveSpeedup(1) != 1 {
		t.Error("n < 2 must not promise speedup")
	}
	prev := 1.0
	for n := 2; n <= 16; n++ {
		f := EffectiveSpeedup(n)
		if f <= prev || f >= float64(n) {
			t.Errorf("EffectiveSpeedup(%d) = %v: want monotone and sublinear", n, f)
		}
		prev = f
	}
	if f := EffectiveSpeedup(4); f < 2.5 {
		t.Errorf("EffectiveSpeedup(4) = %v below the 2.5x benchmark gate", f)
	}
	want := 4 / (1 + shardSerialFraction*3)
	if got := EffectiveSpeedup(4); math.Abs(got-want) > 1e-12 {
		t.Errorf("EffectiveSpeedup(4) = %v, want %v", got, want)
	}
}

// TestSetSplitsCapacity: the slices split the byte budget, aggregate stats
// sum across slices, and a zero budget leaves them nil.
func TestSetSplitsCapacity(t *testing.T) {
	s := NewSet(Partition{N: 4}, 4096)
	if len(s.Caches) != 4 {
		t.Fatalf("got %d slices, want 4", len(s.Caches))
	}
	for i, c := range s.Caches {
		if c == nil {
			t.Fatalf("slice %d nil under a positive budget", i)
		}
	}
	if NewSet(Partition{N: 4}, 0).Caches[0] != nil {
		t.Error("zero budget must leave slices nil")
	}
	if n := len(NewSet(Partition{}, 0).Caches); n != 1 {
		t.Errorf("N<1 must normalize to one shard, got %d", n)
	}
	var nilSet *Set
	if nilSet.Stats() != (pipeline.CacheStats{}) || nilSet.HitRate() != 0 {
		t.Error("nil Set must report zero stats")
	}
	nilSet.SetTier(nil) // must not panic
}

// TestGroupRoutesAndCounts: resolutions land on the owner shard's counter,
// Progress snapshots them, and Prime suppresses announcements until the
// floor is recovered.
func TestGroupRoutesAndCounts(t *testing.T) {
	set := NewSet(Partition{N: 2, Kind: KindRange}, 0)
	extract := func(k pipeline.Key) []relation.Tuple { return nil }
	g := NewGroup(set, 0, []int{100}, extract)
	if g == nil || g.HasCache() || len(g.Progress()) != 2 {
		t.Fatalf("fresh cacheless group: cache=%v progress=%v", g.HasCache(), g.Progress())
	}
	if g.Lookahead() < 2 {
		t.Errorf("lookahead %d: want at least one slot per shard", g.Lookahead())
	}
	// Range split of 100 docs over 2 shards: doc 10 on shard 0, doc 90 on 1.
	for _, doc := range []int{10, 11, 90} {
		if _, _, _ = g.Resolve(pipeline.Key{Side: 0, DocID: doc}, func() []relation.Tuple { return nil }); false {
			t.Fatal()
		}
	}
	if p := g.Progress(); p[0] != 2 || p[1] != 1 {
		t.Errorf("progress %v, want [2 1]", p)
	}

	// A primed group swallows announcements below the floor, then routes.
	g2 := NewGroup(set, 0, []int{100}, extract)
	g2.Prime([]int{1, 0})
	if !g2.Announce(pipeline.Key{Side: 0, DocID: 10}) {
		t.Error("announcement below the resume floor must be swallowed as accepted")
	}
	g2.Resolve(pipeline.Key{Side: 0, DocID: 10}, func() []relation.Tuple { return nil })
	// Floor recovered: announcements now reach the real engine (accepted
	// while its window has room).
	if !g2.Announce(pipeline.Key{Side: 0, DocID: 11}) {
		t.Error("post-floor announcement refused with an empty window")
	}
	g2.Drop(pipeline.Key{Side: 0, DocID: 11})

	// Mismatched progress vectors are ignored.
	g3 := NewGroup(set, 0, []int{100}, extract)
	g3.Prime([]int{1, 2, 3})
	if p := g3.Progress(); p[0] != 0 || p[1] != 0 {
		t.Errorf("mismatched Prime must be a no-op, progress %v", p)
	}

	var nilGroup *Group
	if nilGroup.HasCache() || nilGroup.Lookahead() != 0 || nilGroup.Progress() != nil {
		t.Error("nil group must report inactive")
	}
	nilGroup.Prime(nil) // must not panic
}

// TestOneShardGroup: an unsharded run is a group of one shard. It runs
// exactly the requested workers — 0 leaves a cache-only frontend that never
// speculates — reports no per-shard progress (unsharded checkpoints keep
// their encoding), and without a cache or workers there is no frontend.
func TestOneShardGroup(t *testing.T) {
	extract := func(pipeline.Key) []relation.Tuple { return nil }
	g := NewGroup(NewSet(Partition{N: 1}, 4096), 0, []int{100}, extract)
	if g == nil || !g.HasCache() {
		t.Fatalf("one cached shard: group %v, want a cached frontend", g)
	}
	if g.Lookahead() != 0 {
		t.Errorf("one shard, 0 workers: lookahead %d, want 0", g.Lookahead())
	}
	if g.Progress() != nil {
		t.Errorf("one-shard progress %v, want nil", g.Progress())
	}
	for _, set := range []*Set{nil, NewSet(Partition{}, 0), NewSet(Partition{N: 1}, 0)} {
		if g := NewGroup(set, 0, []int{100}, extract); g != nil {
			t.Errorf("no cache, no workers: group %v, want nil", g)
		}
	}
	if g := NewGroup(nil, 2, []int{100}, extract); g == nil || g.HasCache() || g.Lookahead() == 0 {
		t.Errorf("one uncached shard with workers must speculate: %v", g)
	}
}

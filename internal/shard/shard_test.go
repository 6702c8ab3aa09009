package shard

import (
	"testing"

	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
)

// TestOwnerDeterministicAndInRange: ownership is a pure function — repeated
// calls agree — and always lands inside [0, N).
func TestOwnerDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16} {
		p := Partition{N: n}
		for side := 0; side < 2; side++ {
			for doc := 0; doc < 500; doc++ {
				s := p.Owner(side, doc)
				if s < 0 || (n >= 2 && s >= n) || (n < 2 && s != 0) {
					t.Fatalf("N=%d: Owner(%d,%d) = %d out of range", n, side, doc, s)
				}
				if again := p.Owner(side, doc); again != s {
					t.Fatalf("N=%d: Owner(%d,%d) flapped %d -> %d", n, side, doc, s, again)
				}
			}
		}
	}
}

// TestOwnerHashBalance: hash partitioning spreads a contiguous docID range
// roughly evenly — no shard more than 50% above the fair share.
func TestOwnerHashBalance(t *testing.T) {
	const docs, n = 4000, 8
	p := Partition{N: n}
	counts := make([]int, n)
	for doc := 0; doc < docs; doc++ {
		counts[p.Owner(0, doc)]++
	}
	fair := docs / n
	for s, c := range counts {
		if c > fair*3/2 || c < fair/2 {
			t.Errorf("shard %d owns %d docs, fair share %d", s, c, fair)
		}
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
	// One miss and one hit on slice 0, one miss on slice 1: the aggregate
	// hit rate is 1/3.
	k := pipeline.Key{Side: 0, DocID: 1, Theta: 0.4}
	s.Caches[0].Get(k)
	s.Caches[0].Put(k, []relation.Tuple{{A1: "a", A2: "b"}})
	s.Caches[0].Get(k)
	s.Caches[1].Get(k)
	if st := s.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("aggregate stats %+v, want 1 hit / 2 misses / 1 entry", st)
	}
	if hr := s.HitRate(); hr != 1.0/3.0 {
		t.Errorf("hit rate %v, want 1/3", hr)
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
	set := NewSet(Partition{N: 2}, 0)
	extract := func(k pipeline.Key) []relation.Tuple { return nil }
	// The first two side-0 docs shard 0 owns, and the first shard 1 owns.
	var on [2][]int
	for doc := 0; len(on[0]) < 2 || len(on[1]) < 1; doc++ {
		s := set.Part.Owner(0, doc)
		on[s] = append(on[s], doc)
	}
	a, b, c := on[0][0], on[0][1], on[1][0]
	g := NewGroup(set, 0, extract)
	if g == nil || g.HasCache() || len(g.Progress()) != 2 {
		t.Fatalf("fresh cacheless group: cache=%v progress=%v", g.HasCache(), g.Progress())
	}
	if g.Lookahead() < 2 {
		t.Errorf("lookahead %d: want at least one slot per shard", g.Lookahead())
	}
	for _, doc := range []int{a, b, c} {
		if _, _, _ = g.Resolve(pipeline.Key{Side: 0, DocID: doc}, func() []relation.Tuple { return nil }); false {
			t.Fatal()
		}
	}
	if p := g.Progress(); p[0] != 2 || p[1] != 1 {
		t.Errorf("progress %v, want [2 1]", p)
	}

	// A primed group swallows announcements below the floor, then routes.
	g2 := NewGroup(set, 0, extract)
	g2.Prime([]int{1, 0})
	if !g2.Announce(pipeline.Key{Side: 0, DocID: a}) {
		t.Error("announcement below the resume floor must be swallowed as accepted")
	}
	g2.Resolve(pipeline.Key{Side: 0, DocID: a}, func() []relation.Tuple { return nil })
	// Floor recovered: announcements now reach the real engine (accepted
	// while its window has room).
	if !g2.Announce(pipeline.Key{Side: 0, DocID: b}) {
		t.Error("post-floor announcement refused with an empty window")
	}
	g2.Drop(pipeline.Key{Side: 0, DocID: b})

	// Mismatched progress vectors are ignored.
	g3 := NewGroup(set, 0, extract)
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
	g := NewGroup(NewSet(Partition{N: 1}, 4096), 0, extract)
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
		if g := NewGroup(set, 0, extract); g != nil {
			t.Errorf("no cache, no workers: group %v, want nil", g)
		}
	}
	if g := NewGroup(nil, 2, extract); g == nil || g.HasCache() || g.Lookahead() == 0 {
		t.Errorf("one uncached shard with workers must speculate: %v", g)
	}
}

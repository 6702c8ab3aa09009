package join_test

import (
	"bytes"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/shard"
	"joinopt/internal/workload"
)

// runSharded executes spec over w (repeats times, back to back) under the
// given shard and worker counts, returning the concatenated NDJSON trace and
// the final run's snapshot. Repeated executions share the shard set, so the
// second execution exercises the per-shard cache hit path. cacheBytes is the
// total budget, split evenly across shard slices exactly as the facade does.
func runSharded(t *testing.T, w *workload.Workload, spec optimizer.PlanSpec, shards, workers int, cacheBytes int64, repeats int) ([]byte, join.Snapshot) {
	t.Helper()
	w.ExecWorkers = workers
	w.ShardSet = shard.NewSet(shard.Partition{N: shards}, cacheBytes)
	var buf bytes.Buffer
	sink := obs.NewNDJSON(&buf)
	w.Trace = obs.New(sink)
	defer func() {
		w.ShardSet = nil
		w.ExecWorkers = 0
		w.Trace = nil
	}()
	var last join.Snapshot
	for r := 0; r < repeats; r++ {
		exec, err := w.NewExecutor(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.Run(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = st.Snapshot()
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), last
}

// TestShardedBitIdenticalTraces is the scatter-gather engine's core
// property: under seeded fault injection, every shard count produces the
// byte-identical NDJSON trace and final snapshot as the unsharded execution
// — partitioning moves extraction onto per-shard engines but the consumer
// still resolves documents in canonical stream order, so nothing an
// execution does, charges, or emits can depend on the shard count.
func TestShardedBitIdenticalTraces(t *testing.T) {
	w := pipeWorkload(t)
	p, err := faults.Parse("rate=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	defer func() { w.Faults = nil; w.Retry = join.RetryPolicy{} }()

	for _, spec := range pipelinePlans {
		baseTrace, baseSnap := runSharded(t, w, spec, 0, 0, 0, 1)
		for _, n := range []int{1, 2, 4, 8} {
			trace, snap := runSharded(t, w, spec, n, 0, 0, 1)
			if snap != baseSnap {
				t.Errorf("%s shards=%d: snapshot diverged\nbase %+v\n got %+v", spec, n, baseSnap, snap)
			}
			if !bytes.Equal(trace, baseTrace) {
				t.Errorf("%s shards=%d: trace diverged at %s", spec, n, firstTraceDiff(baseTrace, trace))
			}
		}
		// Sharding composes with per-shard worker pools: the budget splits
		// across shards without disturbing the merged stream.
		trace, snap := runSharded(t, w, spec, 4, 3, 0, 1)
		if snap != baseSnap {
			t.Errorf("%s shards=4 workers=3: snapshot diverged\nbase %+v\n got %+v", spec, baseSnap, snap)
		}
		if !bytes.Equal(trace, baseTrace) {
			t.Errorf("%s shards=4 workers=3: trace diverged at %s", spec, firstTraceDiff(baseTrace, trace))
		}
	}
}

// TestShardedBitIdenticalWithCache repeats the identity property with a
// cache budget large enough that no slice evicts: each plan executes twice
// per run, the second served from the per-shard cache slices, and the hit
// accounting, free re-extractions, and "cached" trace attributes must all be
// independent of the shard count.
func TestShardedBitIdenticalWithCache(t *testing.T) {
	w := pipeWorkload(t)
	p, err := faults.Parse("rate=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	defer func() { w.Faults = nil; w.Retry = join.RetryPolicy{} }()

	const cacheBytes = 1 << 26 // roomy: slices stay eviction-free at 8 shards
	for _, spec := range pipelinePlans {
		baseTrace, baseSnap := runSharded(t, w, spec, 0, 0, cacheBytes, 2)
		if !bytes.Contains(baseTrace, []byte(`"cached":true`)) {
			t.Errorf("%s: no cached re-extractions in a repeated run's trace", spec)
		}
		for _, n := range []int{2, 4, 8} {
			trace, snap := runSharded(t, w, spec, n, 0, cacheBytes, 2)
			if snap != baseSnap {
				t.Errorf("%s shards=%d cached: snapshot diverged\nbase %+v\n got %+v", spec, n, baseSnap, snap)
			}
			if !bytes.Equal(trace, baseTrace) {
				t.Errorf("%s shards=%d cached: trace diverged at %s", spec, n, firstTraceDiff(baseTrace, trace))
			}
		}
	}
}

// TestShardedCappedCacheWarmthInvariant: when the cache budget is tight,
// per-slice eviction boundaries legitimately differ from the unsharded LRU's
// — which documents stay warm may change, but nothing else: tuples,
// document counters, and the billed total Time+ΣCacheSaved (work is either
// paid for or saved, never lost) stay equal at every shard count.
func TestShardedCappedCacheWarmthInvariant(t *testing.T) {
	w := pipeWorkload(t)
	spec := pipelinePlans[0]
	const cacheBytes = 64 << 10

	warmth := func(s join.Snapshot) float64 { return s.Time + s.CacheSaved[0] + s.CacheSaved[1] }
	_, base := runSharded(t, w, spec, 0, 0, cacheBytes, 2)
	for _, n := range []int{1, 2, 4, 8} {
		_, snap := runSharded(t, w, spec, n, 0, cacheBytes, 2)
		if snap.GoodPairs != base.GoodPairs || snap.BadPairs != base.BadPairs || snap.JoinSize != base.JoinSize {
			t.Errorf("shards=%d: output diverged: (%d,%d,%d) vs (%d,%d,%d)", n,
				snap.GoodPairs, snap.BadPairs, snap.JoinSize, base.GoodPairs, base.BadPairs, base.JoinSize)
		}
		if snap.DocsProcessed != base.DocsProcessed || snap.DocsRetrieved != base.DocsRetrieved {
			t.Errorf("shards=%d: document counters diverged: %+v vs %+v", n, snap, base)
		}
		if warmth(snap) != warmth(base) {
			t.Errorf("shards=%d: Time+ΣCacheSaved invariant broken: %v vs %v", n, warmth(snap), warmth(base))
		}
	}
}

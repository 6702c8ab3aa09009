package join_test

import (
	"bytes"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/workload"
)

// runSharded executes spec over w (repeats times, back to back) under the
// given shard and worker counts, returning the concatenated NDJSON trace and
// the final run's snapshot. Repeated executions share one cache of
// cacheBytes, so the second execution exercises the cache hit path exactly
// as the facade's task-level cache does.
func runSharded(t *testing.T, w *workload.Workload, spec optimizer.PlanSpec, shards, workers int, cacheBytes int64, repeats int) ([]byte, join.Snapshot) {
	t.Helper()
	w.ExecWorkers = workers
	w.Shards = shards
	w.Cache = pipeline.NewCache(cacheBytes)
	var buf bytes.Buffer
	sink := obs.NewNDJSON(&buf)
	w.Trace = obs.New(sink)
	defer func() {
		w.Shards = 0
		w.Cache = nil
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

// TestShardedBitIdenticalTraces is the sharded layout's core property: under
// seeded fault injection, every shard count produces the byte-identical
// NDJSON trace and final snapshot as the unsharded execution — shards only
// size the speculation pool and count resolutions, and the consumer still
// resolves documents in canonical stream order, so nothing an execution
// does, charges, or emits can depend on the shard count.
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
		// Sharding composes with an explicit worker budget without
		// disturbing the stream.
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
// cache budget large enough that nothing evicts: each plan executes twice
// per run, the second served from the cache, and the hit accounting, free
// re-extractions, and "cached" trace attributes must all be independent of
// the shard count.
func TestShardedBitIdenticalWithCache(t *testing.T) {
	w := pipeWorkload(t)
	p, err := faults.Parse("rate=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	defer func() { w.Faults = nil; w.Retry = join.RetryPolicy{} }()

	const cacheBytes = 1 << 26 // roomy: nothing evicts
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

// TestShardedCappedCacheWarmthInvariant: with a cache budget tight enough to
// evict, every shard count still reads and fills the one cache in canonical
// stream order, so the same documents stay warm as in the unsharded run —
// and with them every hit, charge, and "cached" trace attribute. The whole
// snapshot and trace must match for every plan, cap and shard count.
func TestShardedCappedCacheWarmthInvariant(t *testing.T) {
	w := pipeWorkload(t)
	for _, spec := range pipelinePlans {
		for _, kib := range []int64{32, 64, 128, 256, 512} {
			baseTrace, baseSnap := runSharded(t, w, spec, 0, 0, kib<<10, 2)
			for _, n := range []int{2, 4, 8} {
				trace, snap := runSharded(t, w, spec, n, 0, kib<<10, 2)
				if snap != baseSnap {
					t.Errorf("%s %d KiB shards=%d: snapshot diverged\nbase %+v\n got %+v", spec, kib, n, baseSnap, snap)
				}
				if !bytes.Equal(trace, baseTrace) {
					t.Errorf("%s %d KiB shards=%d: trace diverged at %s", spec, kib, n, firstTraceDiff(baseTrace, trace))
				}
			}
		}
	}
}

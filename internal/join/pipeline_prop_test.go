package join_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	pipeWlOnce sync.Once
	pipeWl     *workload.Workload
	pipeWlErr  error
)

// pipeWorkload is a dedicated workload for the pipeline property tests: they
// mutate Faults, Trace, ExecWorkers, and Cache, so they must not share the
// package-wide one.
func pipeWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	pipeWlOnce.Do(func() {
		pipeWl, pipeWlErr = workload.HQJoinEX(workload.Params{NumDocs: 600, Seed: 9})
	})
	if pipeWlErr != nil {
		t.Fatal(pipeWlErr)
	}
	return pipeWl
}

// pipelinePlans is the executor matrix the identity property runs over: all
// three algorithms, including the peeking strategies (FS classifies ahead,
// AQG reveals its buffer).
var pipelinePlans = []optimizer.PlanSpec{
	{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}},
	{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.8}, X: [2]retrieval.Kind{retrieval.FS, retrieval.AQG}},
	{JN: optimizer.OIJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, ""}},
	{JN: optimizer.ZGJN, Theta: [2]float64{0.4, 0.4}},
}

// runPipelined executes spec over w (repeats times, back to back) at the
// given worker count and cache capacity, returning the concatenated NDJSON
// trace and the final run's snapshot. Repeated executions share the run's
// cache, so the second execution exercises the hit path end to end.
func runPipelined(t *testing.T, w *workload.Workload, spec optimizer.PlanSpec, workers int, cacheBytes int64, repeats int) ([]byte, join.Snapshot) {
	t.Helper()
	w.ExecWorkers = workers
	w.Cache = pipeline.NewCache(cacheBytes)
	var buf bytes.Buffer
	sink := obs.NewNDJSON(&buf)
	w.Trace = obs.New(sink)
	defer func() {
		w.ExecWorkers = 0
		w.Cache = nil
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

func firstTraceDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nbase %s\n got %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: base %d lines, got %d", len(al), len(bl))
}

// TestPipelineBitIdenticalTraces is the engine's core property: under seeded
// fault injection, every worker count produces the byte-identical NDJSON
// trace and final snapshot as the sequential execution — speculation moves
// extraction onto workers but never changes what an execution does, charges,
// or emits.
func TestPipelineBitIdenticalTraces(t *testing.T) {
	w := pipeWorkload(t)
	p, err := faults.Parse("rate=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	defer func() { w.Faults = nil; w.Retry = join.RetryPolicy{} }()

	for _, spec := range pipelinePlans {
		baseTrace, baseSnap := runPipelined(t, w, spec, 0, 0, 1)
		for _, n := range []int{1, 2, 4, 8} {
			trace, snap := runPipelined(t, w, spec, n, 0, 1)
			if snap != baseSnap {
				t.Errorf("%s workers=%d: snapshot diverged\nbase %+v\n got %+v", spec, n, baseSnap, snap)
			}
			if !bytes.Equal(trace, baseTrace) {
				t.Errorf("%s workers=%d: trace diverged at %s", spec, n, firstTraceDiff(baseTrace, trace))
			}
		}
	}
}

// TestPipelineBitIdenticalWithCache repeats the identity property with the
// shared extraction cache attached and each plan executed twice per run, so
// the second execution is served from the cache: hit accounting, the free
// re-extractions, and the "cached" trace attribute must all be independent
// of the worker count too.
func TestPipelineBitIdenticalWithCache(t *testing.T) {
	w := pipeWorkload(t)
	p, err := faults.Parse("rate=0.05,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	defer func() { w.Faults = nil; w.Retry = join.RetryPolicy{} }()

	const cacheBytes = 1 << 22
	for _, spec := range pipelinePlans {
		baseTrace, baseSnap := runPipelined(t, w, spec, 0, cacheBytes, 2)
		if !bytes.Contains(baseTrace, []byte(`"cached":true`)) {
			t.Errorf("%s: no cached re-extractions in a repeated run's trace", spec)
		}
		for _, n := range []int{1, 2, 4, 8} {
			trace, snap := runPipelined(t, w, spec, n, cacheBytes, 2)
			if snap != baseSnap {
				t.Errorf("%s workers=%d cached: snapshot diverged\nbase %+v\n got %+v", spec, n, baseSnap, snap)
			}
			if !bytes.Equal(trace, baseTrace) {
				t.Errorf("%s workers=%d cached: trace diverged at %s", spec, n, firstTraceDiff(baseTrace, trace))
			}
		}
	}
}

// TestPipelineCappedCacheWarmthInvariant: with a cache budget tight enough
// to evict, every worker count still reads and fills the one cache in
// canonical stream order, so the same documents stay warm as in the
// sequential run — and with them every hit, charge, and "cached" trace
// attribute. The whole snapshot and trace must match for every plan, cap
// and worker count.
func TestPipelineCappedCacheWarmthInvariant(t *testing.T) {
	w := pipeWorkload(t)
	for _, spec := range pipelinePlans {
		for _, kib := range []int64{32, 64, 128, 256, 512} {
			baseTrace, baseSnap := runPipelined(t, w, spec, 0, kib<<10, 2)
			for _, n := range []int{2, 4, 8} {
				trace, snap := runPipelined(t, w, spec, n, kib<<10, 2)
				if snap != baseSnap {
					t.Errorf("%s %d KiB workers=%d: snapshot diverged\nbase %+v\n got %+v", spec, kib, n, baseSnap, snap)
				}
				if !bytes.Equal(trace, baseTrace) {
					t.Errorf("%s %d KiB workers=%d: trace diverged at %s", spec, kib, n, firstTraceDiff(baseTrace, trace))
				}
			}
		}
	}
}

// TestCacheMakesRerunExtractionFree pins the cost-model contract: re-running
// a plan against a warm cache charges zero extraction time for every cached
// document, and the tuples are identical.
func TestCacheMakesRerunExtractionFree(t *testing.T) {
	w := pipeWorkload(t)
	spec := optimizer.PlanSpec{JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	w.Cache = pipeline.NewCache(1 << 22)
	defer func() { w.Cache = nil }()

	run := func() *join.State {
		exec, err := w.NewExecutor(spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := join.Run(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cold := run()
	warm := run()
	cg, cb := resultCounts(cold)
	wg, wb := resultCounts(warm)
	if cg != wg || cb != wb {
		t.Fatalf("warm run output (%d,%d) != cold (%d,%d)", wg, wb, cg, cb)
	}
	if warm.DocsProcessed != cold.DocsProcessed {
		t.Fatalf("warm run processed %v docs, cold %v", warm.DocsProcessed, cold.DocsProcessed)
	}
	processed := float64(cold.DocsProcessed[0] + cold.DocsProcessed[1])
	wantSaved := processed * join.DefaultCosts.TE
	if saved := cold.Time - warm.Time; saved != wantSaved {
		t.Fatalf("warm run saved %v model time, want exactly %v (tE × %v docs)", saved, wantSaved, processed)
	}
}

// TestPipelineFeedsEveryStream: the speculation pool is shared by both
// sides of an execution, so announcing must leave room for each. A 4-worker
// IDJN or OIJN run over a counting extract function must see workers
// extract most documents of each side — not the first stream's while the
// other resolves inline on the consumer.
func TestPipelineFeedsEveryStream(t *testing.T) {
	w := pipeWorkload(t)
	for _, spec := range []optimizer.PlanSpec{pipelinePlans[0], pipelinePlans[2]} {
		exec, err := w.NewExecutor(spec)
		if err != nil {
			t.Fatal(err)
		}
		var extracted [2]atomic.Int64
		st := exec.State()
		st.Pipeline = pipeline.NewEngine(nil, 4, func(k pipeline.Key) []relation.Tuple {
			extracted[k.Side].Add(1)
			return w.Tables[k.Side].Extract(k.DocID, k.Theta)
		})
		if _, err := join.Run(exec, nil); err != nil {
			t.Fatal(err)
		}
		for side := 0; side < 2; side++ {
			if got, docs := extracted[side].Load(), st.DocsProcessed[side]; docs == 0 || got*4 < int64(docs)*3 {
				t.Errorf("%s side %d: workers extracted %d of %d documents", spec, side+1, got, docs)
			}
		}
	}
}

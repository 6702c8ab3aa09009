package workload

import (
	"context"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/retrieval"
)

// pipeTestWorkload builds a small dedicated workload: these tests mutate
// ExecWorkers, Cache, and Metrics, so they must not share the
// package-wide one.
func pipeTestWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := HQJoinEX(Params{NumDocs: 400, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runPlan(t *testing.T, w *Workload, spec optimizer.PlanSpec) *join.State {
	t.Helper()
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

var scPlan = optimizer.PlanSpec{
	JN:    optimizer.IDJN,
	Theta: [2]float64{0.4, 0.4},
	X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
}

// TestCacheCountersMatchCacheStats pins the observability contract: the
// joinopt_extract_cache_* metric counters must equal the cache's own
// accounting exactly — every hit and miss flows through both.
func TestCacheCountersMatchCacheStats(t *testing.T) {
	w := pipeTestWorkload(t)
	reg := obs.NewRegistry()
	cache := pipeline.NewCache(1 << 22)
	w.Cache = cache
	w.Metrics = reg
	w.ExecWorkers = 2

	// Two executions sharing the cache: the first all misses, the second
	// all hits.
	runPlan(t, w, scPlan)
	runPlan(t, w, scPlan)

	s := cache.Stats()
	snap := reg.Snapshot()
	var hits, misses int64
	for side := 0; side < 2; side++ {
		label := string('1' + byte(side))
		hits += snap.Counters[obs.MetricCacheHits+`{side="`+label+`"}`]
		misses += snap.Counters[obs.MetricCacheMisses+`{side="`+label+`"}`]
	}
	if hits != s.Hits || misses != s.Misses {
		t.Errorf("metric counters (hits=%d misses=%d) != cache stats (hits=%d misses=%d)",
			hits, misses, s.Hits, s.Misses)
	}
	if s.Hits == 0 || s.Misses == 0 {
		t.Errorf("expected both hits and misses over a repeated run, got %+v", s)
	}
	if ev := snap.Counters[obs.MetricCacheEvictions]; ev != s.Evictions {
		t.Errorf("eviction counter %d != cache stats %d", ev, s.Evictions)
	}
	// A full repeat against a large cache is served entirely from it.
	total := int64(0)
	for side := 0; side < 2; side++ {
		total += int64(w.DB[side].Size())
	}
	if s.Hits != total {
		t.Errorf("second run hit %d documents, want all %d", s.Hits, total)
	}
}

// TestCacheEvictsAtByteBound runs against a deliberately tiny cache and
// checks the byte bound holds, evictions happen, and the eviction metric
// mirrors them.
func TestCacheEvictsAtByteBound(t *testing.T) {
	w := pipeTestWorkload(t)
	reg := obs.NewRegistry()
	const bound = 8 << 10
	cache := pipeline.NewCache(bound)
	w.Cache = cache
	w.Metrics = reg

	runPlan(t, w, scPlan)

	s := cache.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions from a %d-byte cache over %d documents", bound, w.DB[0].Size()+w.DB[1].Size())
	}
	if s.Bytes > bound && s.Entries > 1 {
		t.Errorf("resident bytes %d over the %d bound with %d entries", s.Bytes, bound, s.Entries)
	}
	if got := reg.Snapshot().Counters[obs.MetricCacheEvictions]; got != s.Evictions {
		t.Errorf("eviction counter %d != cache stats %d", got, s.Evictions)
	}
}

// TestAdaptiveCacheAvoidsExtractions is the end-to-end saving the shared
// cache exists for: the adaptive protocol's pilot scans documents the chosen
// plan then re-processes, so a cached run must invoke the real extractor
// strictly fewer times — with the decision sequence, its quality estimates,
// and the final output unchanged.
func TestAdaptiveCacheAvoidsExtractions(t *testing.T) {
	req := optimizer.Requirement{TauG: 10, TauB: 200}
	extracts := func(w *Workload) int64 { return w.Sys[0].Extracts() + w.Sys[1].Extracts() }

	run := func(cached bool) (*optimizer.Result, int64) {
		w := pipeTestWorkload(t)
		if cached {
			w.Cache = pipeline.NewCache(1 << 22)
		}
		env, err := w.NewEnv([]float64{0.4, 0.8})
		if err != nil {
			t.Fatal(err)
		}
		before := extracts(w)
		res, err := optimizer.RunAdaptiveCtx(context.Background(), env, req, optimizer.Options{ChooseWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res, extracts(w) - before
	}

	plain, plainN := run(false)
	cached, cachedN := run(true)

	if cachedN >= plainN {
		t.Errorf("cached adaptive run invoked the extractor %d times, plain run %d — want strictly fewer", cachedN, plainN)
	}
	if len(cached.Decisions) != len(plain.Decisions) {
		t.Fatalf("decision counts differ: cached %d, plain %d", len(cached.Decisions), len(plain.Decisions))
	}
	for i := range plain.Decisions {
		p, c := plain.Decisions[i], cached.Decisions[i]
		if p.Chosen.Plan != c.Chosen.Plan {
			t.Errorf("decision %d: cached chose %s, plain chose %s", i, c.Chosen.Plan, p.Chosen.Plan)
		}
		if p.Chosen.Quality != c.Chosen.Quality {
			t.Errorf("decision %d: quality estimates diverged: cached %+v, plain %+v", i, c.Chosen.Quality, p.Chosen.Quality)
		}
	}
	pg, pb := plain.Final.Result.Counts()
	cg, cb := cached.Final.Result.Counts()
	if pg != cg || pb != cb {
		t.Errorf("cached final output (%d,%d) != plain (%d,%d)", cg, cb, pg, pb)
	}
}

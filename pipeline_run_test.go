package joinopt_test

import (
	"context"
	"testing"

	"joinopt"
)

// TestRunExecWorkersIdenticalOutcome is the facade-level identity smoke: the
// pipelined engine behind WithExecWorkers must leave every user-visible
// quantity of a run untouched.
func TestRunExecWorkersIdenticalOutcome(t *testing.T) {
	tk := facadeTask(t)
	req := joinopt.Requirement{}
	base, err := tk.Run(context.Background(), req, joinopt.WithPlan(scanPlan()))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := tk.Run(context.Background(), req, joinopt.WithPlan(scanPlan()),
		joinopt.WithExecWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	b, p := base.Outcome, piped.Outcome
	if b.GoodTuples != p.GoodTuples || b.BadTuples != p.BadTuples || b.Time != p.Time ||
		b.DocsProcessed != p.DocsProcessed || b.DocsRetrieved != p.DocsRetrieved ||
		b.Queries != p.Queries {
		t.Errorf("4-worker outcome diverged from sequential:\nseq  %+v\npipe %+v", b, p)
	}
	if base.TotalTime != piped.TotalTime {
		t.Errorf("total time diverged: %v vs %v", base.TotalTime, piped.TotalTime)
	}
}

// TestRunExtractionCacheStats smokes the cache through the facade: a repeated
// run against WithExtractionCache is served from the task-level cache, the
// stats surface reports it, and the cost-model time drops accordingly while
// the output stays identical.
func TestRunExtractionCacheStats(t *testing.T) {
	tk, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if s := tk.ExtractionCacheStats(); s != (joinopt.CacheStats{}) {
		t.Fatalf("fresh task reports cache stats %+v", s)
	}
	run := func() *joinopt.RunResult {
		res, err := tk.Run(context.Background(), joinopt.Requirement{},
			joinopt.WithPlan(scanPlan()), joinopt.WithExtractionCache(1<<22))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run()
	if s := tk.ExtractionCacheStats(); s.Hits != 0 || s.Misses == 0 || s.Entries == 0 {
		t.Fatalf("cold run cache stats %+v, want only misses", s)
	}
	warm := run()
	s := tk.ExtractionCacheStats()
	if s.Hits == 0 {
		t.Fatalf("repeated run recorded no cache hits: %+v", s)
	}
	if cold.Outcome.GoodTuples != warm.Outcome.GoodTuples ||
		cold.Outcome.BadTuples != warm.Outcome.BadTuples {
		t.Errorf("warm output (%d,%d) != cold (%d,%d)",
			warm.Outcome.GoodTuples, warm.Outcome.BadTuples,
			cold.Outcome.GoodTuples, cold.Outcome.BadTuples)
	}
	if warm.Outcome.Time >= cold.Outcome.Time {
		t.Errorf("warm run time %v not below cold %v despite %d cache hits",
			warm.Outcome.Time, cold.Outcome.Time, s.Hits)
	}

	// A run without the option drops the per-task cache again.
	if _, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(scanPlan())); err != nil {
		t.Fatal(err)
	}
	if s := tk.ExtractionCacheStats(); s != (joinopt.CacheStats{}) {
		t.Errorf("cache survived an uncached run: %+v", s)
	}
}

// TestShardSwitchKeepsOneCacheBudget pins the single extraction layout: a
// task that runs unsharded and then at four shards keeps one set of cache
// slices, never both, so its resident bytes stay within ExtractCacheBytes.
func TestShardSwitchKeepsOneCacheBudget(t *testing.T) {
	tk, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tk.ExtractCacheBytes = 64 << 10
	for _, shards := range []int{1, 4} {
		if _, err := tk.Run(context.Background(), joinopt.Requirement{},
			joinopt.WithPlan(scanPlan()), joinopt.WithShards(shards)); err != nil {
			t.Fatal(err)
		}
	}
	s := tk.ExtractionCacheStats()
	if s.Entries == 0 {
		t.Fatalf("no cache entries after two cached runs: %+v", s)
	}
	if s.Bytes > tk.ExtractCacheBytes {
		t.Errorf("task holds %d cache bytes against a %d-byte budget", s.Bytes, tk.ExtractCacheBytes)
	}
}

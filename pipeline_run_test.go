package joinopt_test

import (
	"context"
	"fmt"
	"testing"

	"joinopt"
	"joinopt/internal/experiments"
)

// execLayout is one setting of the execution knobs, which may change
// wall-clock time but never an answer.
type execLayout struct {
	name        string
	execWorkers int
}

var execLayouts = []execLayout{
	{name: "plain"},
	{name: "workers2", execWorkers: 2},
	{name: "workers4", execWorkers: 4},
}

func (l execLayout) opts() []joinopt.RunOption {
	return []joinopt.RunOption{joinopt.WithExecWorkers(l.execWorkers)}
}

// layoutRows are the Table II rows with a feasible plan at 2,000 documents.
func layoutRows() []joinopt.Requirement {
	var reqs []joinopt.Requirement
	for _, r := range experiments.Table2Reqs {
		if r.TauG <= 256 {
			reqs = append(reqs, joinopt.Requirement(r))
		}
	}
	return reqs
}

// adaptiveAnswers runs every row in order on tk under layout l and renders
// what each run answered: its plans, its tuples, and its billed time.
func adaptiveAnswers(t *testing.T, tk *joinopt.Task, l execLayout, reqs []joinopt.Requirement) []string {
	t.Helper()
	out := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := tk.Run(context.Background(), req, l.opts()...)
		if err != nil {
			t.Fatalf("%s τ=%d/%d: %v", l.name, req.TauG, req.TauB, err)
		}
		out[i] = fmt.Sprintf("plans %v good %d bad %d total %v",
			res.Plans, res.Outcome.GoodTuples, res.Outcome.BadTuples, res.TotalTime)
	}
	return out
}

// TestRunExecWorkersIdenticalOutcome pins the promise that execution
// workers are bit-identical at any setting: a fixed plan's outcome, every
// adaptive answer over the Table II rows (with and without an extraction
// cache), and the n-ary plan choice are the same under every layout. Each layout runs the adaptive rows in the same order on a fresh
// task. Without a cache, a shared task would serve every later layout's
// pilot from the first layout's plan-search memo, so the pilot would never
// run under that layout. With a cache, answers follow the cache's history,
// and a 1 GiB cache evicts nothing: the same history gives the same hit
// rate at every estimation.
func TestRunExecWorkersIdenticalOutcome(t *testing.T) {
	t.Run("fixed-plan", func(t *testing.T) {
		tk := facadeTask(t)
		base, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(scanPlan()))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range execLayouts[1:] {
			res, err := tk.Run(context.Background(), joinopt.Requirement{},
				append(l.opts(), joinopt.WithPlan(scanPlan()))...)
			if err != nil {
				t.Fatal(err)
			}
			b, p := base.Outcome, res.Outcome
			if b.GoodTuples != p.GoodTuples || b.BadTuples != p.BadTuples || b.Time != p.Time ||
				b.DocsProcessed != p.DocsProcessed || b.DocsRetrieved != p.DocsRetrieved ||
				b.Queries != p.Queries || base.TotalTime != res.TotalTime {
				t.Errorf("%s outcome diverged from plain:\nplain %+v total %v\n%s %+v total %v",
					l.name, b, base.TotalTime, l.name, p, res.TotalTime)
			}
		}
	})

	params := joinopt.WorkloadParams{NumDocs: 2000, Seed: 1}
	reqs := layoutRows()
	compare := func(t *testing.T, l execLayout, want, got []string) {
		t.Helper()
		for i, req := range reqs {
			if got[i] != want[i] {
				t.Errorf("%s τ=%d/%d diverged from plain:\nplain %s\n%s %s",
					l.name, req.TauG, req.TauB, want[i], l.name, got[i])
			}
		}
	}

	for _, c := range []struct {
		name       string
		cacheBytes int64
	}{{"adaptive", 0}, {"adaptive-cached", 1 << 30}} {
		t.Run(c.name, func(t *testing.T) {
			answers := func(l execLayout) []string {
				tk, err := joinopt.NewHQJoinEX(params)
				if err != nil {
					t.Fatal(err)
				}
				tk.ExtractCacheBytes = c.cacheBytes
				return adaptiveAnswers(t, tk, l, reqs)
			}
			want := answers(execLayouts[0])
			for _, l := range execLayouts[1:] {
				compare(t, l, want, answers(l))
			}
		})
	}

	// One task with one cache runs the rows while cycling through the
	// layouts. The cache outlives every worker-count change, so its
	// history — and every answer — is the plain run's.
	t.Run("adaptive-cached-cycling", func(t *testing.T) {
		answers := func(layout func(i int) execLayout) []string {
			tk, err := joinopt.NewHQJoinEX(params)
			if err != nil {
				t.Fatal(err)
			}
			tk.ExtractCacheBytes = 1 << 30
			out := make([]string, len(reqs))
			for i := range reqs {
				out[i] = adaptiveAnswers(t, tk, layout(i), reqs[i:i+1])[0]
			}
			return out
		}
		want := answers(func(int) execLayout { return execLayouts[0] })
		got := answers(func(i int) execLayout { return execLayouts[i%len(execLayouts)] })
		compare(t, execLayout{name: "cycling"}, want, got)
	})

	t.Run("nary", func(t *testing.T) {
		tk, err := joinopt.NewQuery(joinopt.WorkloadParams{NumDocs: 1000, Seed: 1},
			joinopt.Query{Relations: []string{"HQ", "EX", "MG"}})
		if err != nil {
			t.Fatal(err)
		}
		plans := func(l execLayout) []string {
			tk.ExecWorkers = l.execWorkers
			out := make([]string, len(reqs))
			for i, req := range reqs {
				qp, err := tk.OptimizeQuery(req)
				if err != nil {
					t.Fatalf("%s τ=%d/%d: %v", l.name, req.TauG, req.TauB, err)
				}
				out[i] = fmt.Sprintf("%v good %v bad %v time %v merge %v", qp,
					qp.EstimatedGood, qp.EstimatedBad, qp.EstimatedTime, qp.EstimatedMergeTuples)
			}
			return out
		}
		want := plans(execLayouts[0])
		for _, l := range execLayouts[1:] {
			compare(t, l, want, plans(l))
		}
	})
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

// TestWorkerSwitchKeepsOneCacheBudget pins the single extraction layout: a
// task keeps one cache at any worker count, so a 4-worker run after a
// sequential one is served from the warm cache — every document a hit,
// every extraction charge saved — and the task's resident bytes stay within
// ExtractCacheBytes.
func TestWorkerSwitchKeepsOneCacheBudget(t *testing.T) {
	tk, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 600, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tk.ExtractCacheBytes = 4 << 20
	var out [2]*joinopt.Outcome
	for i, workers := range []int{0, 4} {
		res, err := tk.Run(context.Background(), joinopt.Requirement{},
			joinopt.WithPlan(scanPlan()), joinopt.WithExecWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.Outcome
	}
	cold, warm := out[0], out[1]
	s := tk.ExtractionCacheStats()
	if docs := int64(warm.DocsProcessed[0] + warm.DocsProcessed[1]); docs == 0 || s.Hits != docs {
		t.Errorf("the 4-worker run hit %d of its %d documents in the cache the sequential run filled", s.Hits, docs)
	}
	if saved := warm.CacheSaved[0] + warm.CacheSaved[1]; saved == 0 || warm.Time+saved != cold.Time {
		t.Errorf("the 4-worker run saved %v and billed %v; the sequential run billed %v", saved, warm.Time, cold.Time)
	}
	if s.Bytes > tk.ExtractCacheBytes {
		t.Errorf("task holds %d cache bytes against a %d-byte budget", s.Bytes, tk.ExtractCacheBytes)
	}
}

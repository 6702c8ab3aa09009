// Executor benchmarks for the pipelined execution engine: each of the three
// join algorithms runs to exhaustion over the 8k-document corpus, sequential
// versus a 4-worker pipeline. `make bench-json` runs exactly these (plus the
// plan-space bench) and cmd/benchjson turns the output into BENCH_exec.json.
package joinopt_test

import (
	"fmt"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
)

// benchExec runs spec to exhaustion once per iteration, with the extraction
// memo dropped each time so every iteration performs the full IE work — the
// quantity the pipeline overlaps. The seq/workers4 pair is what the
// benchstat smoke and benchjson -check compare.
func benchExec(b *testing.B, spec optimizer.PlanSpec) {
	w := bench8kWorkload(b)
	run := func(b *testing.B, workers int) {
		w.ExecWorkers = workers
		defer func() { w.ExecWorkers = 0 }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.Tables[0].ResetCache()
			w.Tables[1].ResetCache()
			exec, err := w.NewExecutor(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := join.Run(exec, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b, 0) })
	b.Run("workers4", func(b *testing.B) { run(b, 4) })
}

// BenchmarkExecShardedIDJN8k measures shard scaling: the IDJN full
// scan over the 8k corpus at 1, 2, 4, and 8 shards with no extra pipeline
// workers, so the shards are the only parallelism. shards1 is the
// sequential executor (one uncached shard without workers gets no
// extraction frontend). benchjson -check gates shards4 at ≥ 2.5× over
// shards1 on multi-core runners (-min-shard-speedup).
func BenchmarkExecShardedIDJN8k(b *testing.B) {
	spec := optimizer.PlanSpec{
		JN:    optimizer.IDJN,
		Theta: [2]float64{0.4, 0.4},
		X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
	}
	w := bench8kWorkload(b)
	run := func(b *testing.B, shards int) {
		w.Shards = shards
		defer func() { w.Shards = 0 }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w.Tables[0].ResetCache()
			w.Tables[1].ResetCache()
			exec, err := w.NewExecutor(spec)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := join.Run(exec, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) { run(b, n) })
	}
}

func BenchmarkExecIDJN8k(b *testing.B) {
	benchExec(b, optimizer.PlanSpec{
		JN:    optimizer.IDJN,
		Theta: [2]float64{0.4, 0.4},
		X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
	})
}

func BenchmarkExecOIJN8k(b *testing.B) {
	benchExec(b, optimizer.PlanSpec{
		JN:    optimizer.OIJN,
		Theta: [2]float64{0.4, 0.4},
		X:     [2]retrieval.Kind{retrieval.SC, ""},
	})
}

func BenchmarkExecZGJN8k(b *testing.B) {
	benchExec(b, optimizer.PlanSpec{
		JN:    optimizer.ZGJN,
		Theta: [2]float64{0.4, 0.4},
	})
}

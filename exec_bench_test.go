// Executor benchmarks for the pipelined execution engine: each of the three
// join algorithms runs to exhaustion over the 8k-document corpus, sequential
// versus a 4-worker pipeline. `make bench-json` runs exactly these (plus the
// plan-space bench) and cmd/benchjson turns the output into BENCH_exec.json.
package joinopt_test

import (
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// resetExtraction drops the extraction tables' rows and the indexes'
// value-query memos, so the next execution is cold: it performs the full IE
// work (the quantity the pipeline overlaps) and searches every value query.
func resetExtraction(w *workload.Workload) {
	for i := range w.Tables {
		w.Tables[i].ResetCache()
		w.Ix[i].ResetMemo()
	}
}

// benchExec runs spec to exhaustion once per iteration from a cold
// extraction state (resetExtraction). The seq/workers4 pair is what the
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
			resetExtraction(w)
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

// Command experiments regenerates the tables and figures of the paper's
// evaluation (§VII) on a synthetic HQ ⋈ EX workload:
//
//	experiments -exp all                 # every figure and Table II
//	experiments -exp fig9 -docs 8000     # one figure on a larger corpus
//	experiments -exp table2 -seed 7
//
// Each figure prints estimated-vs-actual series; Table II prints the
// optimizer's plan choice per (τg, τb) requirement compared against every
// alternative plan's actual execution time.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"joinopt/internal/eval"
	"joinopt/internal/experiments"
	"joinopt/internal/faults"
	"joinopt/internal/obs"
	"joinopt/internal/shard"
	"joinopt/internal/workload"
)

func main() {
	var (
		docs    = flag.Int("docs", 4000, "documents per text database")
		seed    = flag.Int64("seed", 1, "generation seed")
		topK    = flag.Int("topk", 0, "search-interface result cap (0 = size-proportional default)")
		exp     = flag.String("exp", "all", "experiment to run: fig9|fig10|fig11|fig12|table2|estimation|faultsweep|all")
		task    = flag.String("task", "hqex", "join task: hqex (the paper's primary) or mgex (Example 1.1)")
		th      = flag.Float64("theta", 0.4, "knob setting for the accuracy figures (fig9-fig11)")
		csv     = flag.String("csv", "", "also write results as CSV files into this directory")
		workers = flag.Int("workers", 0, "optimizer plan-evaluation workers (0 = all cores, 1 = sequential)")
		faultsF = flag.String("faults", "", faults.FlagHelp)

		execWorkers  = flag.Int("exec-workers", 0, "pipelined extraction workers per execution (0 = sequential; results are bit-identical at any setting)")
		shardsF      = flag.Int("shards", 0, "corpus shards for scatter-gather execution (0/1 = unsharded; output is bit-identical at any shard count)")
		extractCache = flag.Int64("extract-cache", 0, "shared extraction cache capacity in bytes (0 = disabled; split evenly across shards)")

		tracePath   = flag.String("trace", "", "write the NDJSON execution trace of every run to this file")
		metricsFlag = flag.Bool("metrics", false, "print the Prometheus-text metrics snapshot at the end")
		profilePath = flag.String("profile", "", "write a CPU profile to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address while running (e.g. :6060)")
	)
	flag.Parse()
	experiments.ChooseWorkers = *workers
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fatal(err)
		}
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof server:", err)
			}
		}()
	}
	if *profilePath != "" {
		f, err := os.Create(*profilePath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	tasks, ok := map[string][2]string{"hqex": {"HQ", "EX"}, "mgex": {"MG", "EX"}}[*task]
	if !ok {
		fatal(fmt.Errorf("unknown task %q (want hqex or mgex)", *task))
	}
	w, err := workload.Pair(workload.Params{NumDocs: *docs, Seed: *seed, TopK: *topK}, tasks[0], tasks[1])
	if err != nil {
		fatal(err)
	}
	if w.Faults, err = faults.Parse(*faultsF); err != nil {
		fatal(err)
	}
	w.ExecWorkers = *execWorkers
	w.ShardSet = shard.NewSet(shard.Partition{N: *shardsF}, *extractCache)
	var traceFile *obs.NDJSON
	if *tracePath != "" {
		if traceFile, err = obs.CreateNDJSON(*tracePath); err != nil {
			fatal(err)
		}
		w.Trace = obs.New(traceFile)
	}
	if *metricsFlag {
		w.Metrics = obs.NewRegistry()
	}
	fmt.Printf("workload: %s on %s (%d docs), %s on %s (%d docs), top-k=%d, seed=%d\n\n",
		tasks[0], w.DB[0].Name, w.DB[0].Size(), tasks[1], w.DB[1].Name, w.DB[1].Size(), w.Ix[0].TopK(), *seed)

	figures := map[string]func(*workload.Workload) (*eval.Figure, error){
		"fig9":  func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig9Theta(w, *th) },
		"fig10": func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig10Theta(w, *th) },
		"fig11": func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig11Theta(w, *th) },
		"fig12": experiments.Fig12,
	}
	writeCSV := func(name, content string) {
		if *csv == "" {
			return
		}
		path := filepath.Join(*csv, name+".csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	run := func(id string) {
		if f, ok := figures[id]; ok {
			fig, err := f(w)
			if err != nil {
				fatal(err)
			}
			fmt.Println(fig)
			for _, s := range fig.Series {
				fmt.Printf("  mean |est-act|/act for %q: %.2f\n", s.Label, s.MeanAbsRelErr())
			}
			writeCSV(id, fig.CSV())
			fmt.Println()
			return
		}
		if id == "estimation" {
			table, err := experiments.Estimation(w)
			if err != nil {
				fatal(err)
			}
			fmt.Println(table)
			writeCSV(id, table.CSV())
			return
		}
		if id == "faultsweep" {
			table, err := experiments.FaultSweep(w, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Println(table)
			writeCSV(id, table.CSV())
			return
		}
		if id == "table2" {
			rows, err := experiments.Table2(w)
			if err != nil {
				fatal(err)
			}
			table := experiments.RenderTable2(rows)
			fmt.Println(table)
			fmt.Printf("chosen algorithms in requirement order: %s\n\n",
				strings.Join(experiments.ChosenAlgorithms(rows), " "))
			writeCSV(id, table.CSV())
			return
		}
		fatal(fmt.Errorf("unknown experiment %q", id))
	}

	switch *exp {
	case "all":
		for _, id := range []string{"fig9", "fig10", "fig11", "fig12", "table2", "estimation", "faultsweep"} {
			run(id)
		}
	default:
		run(*exp)
	}

	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
	if w.Metrics != nil {
		fmt.Println("\nmetrics snapshot:")
		if err := w.Metrics.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

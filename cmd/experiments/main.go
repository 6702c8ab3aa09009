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
	"io"
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
	"joinopt/internal/pipeline"
	"joinopt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses the command line in args and writes the requested
// experiments to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		docs    = fs.Int("docs", 4000, "documents per text database")
		seed    = fs.Int64("seed", 1, "generation seed")
		topK    = fs.Int("topk", 0, "search-interface result cap (0 = size-proportional default)")
		exp     = fs.String("exp", "all", "experiment to run: fig9|fig10|fig11|fig12|table2|estimation|faultsweep|all")
		task    = fs.String("task", "hqex", "join task: hqex (the paper's primary) or mgex (Example 1.1)")
		th      = fs.Float64("theta", 0.4, "knob setting for the accuracy figures (fig9-fig11)")
		csv     = fs.String("csv", "", "also write results as CSV files into this directory")
		workers = fs.Int("workers", 0, "optimizer plan-evaluation workers (0 = all cores, 1 = sequential)")
		faultsF = fs.String("faults", "", faults.FlagHelp)

		execWorkers  = fs.Int("exec-workers", 0, "pipelined extraction workers per execution (0 = sequential; results are bit-identical at any setting)")
		shardsF      = fs.Int("shards", 0, "corpus shards, each a share of the extraction worker pool (0/1 = unsharded; output is bit-identical at any shard count)")
		extractCache = fs.Int64("extract-cache", 0, "shared extraction cache capacity in bytes (0 = disabled; one cache at any shard count)")

		tracePath   = fs.String("trace", "", "write the NDJSON execution trace of every run to this file")
		metricsFlag = fs.Bool("metrics", false, "print the Prometheus-text metrics snapshot at the end")
		profilePath = fs.String("profile", "", "write a CPU profile to this file")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address while running (e.g. :6060)")
	)
	fs.Parse(args)
	experiments.ChooseWorkers = *workers
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return err
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
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	tasks, ok := map[string][2]string{"hqex": {"HQ", "EX"}, "mgex": {"MG", "EX"}}[*task]
	if !ok {
		return fmt.Errorf("unknown task %q (want hqex or mgex)", *task)
	}
	w, err := workload.Pair(workload.Params{NumDocs: *docs, Seed: *seed, TopK: *topK}, tasks[0], tasks[1])
	if err != nil {
		return err
	}
	if w.Faults, err = faults.Parse(*faultsF); err != nil {
		return err
	}
	w.ExecWorkers = *execWorkers
	w.Shards = *shardsF
	w.Cache = pipeline.NewCache(*extractCache)
	var traceFile *obs.NDJSON
	if *tracePath != "" {
		if traceFile, err = obs.CreateNDJSON(*tracePath); err != nil {
			return err
		}
		w.Trace = obs.New(traceFile)
	}
	if *metricsFlag {
		w.Metrics = obs.NewRegistry()
	}
	fmt.Fprintf(stdout, "workload: %s on %s (%d docs), %s on %s (%d docs), top-k=%d, seed=%d\n\n",
		tasks[0], w.DB[0].Name, w.DB[0].Size(), tasks[1], w.DB[1].Name, w.DB[1].Size(), w.Ix[0].TopK(), *seed)

	figures := map[string]func(*workload.Workload) (*eval.Figure, error){
		"fig9":  func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig9Theta(w, *th) },
		"fig10": func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig10Theta(w, *th) },
		"fig11": func(w *workload.Workload) (*eval.Figure, error) { return experiments.Fig11Theta(w, *th) },
		"fig12": experiments.Fig12,
	}
	writeCSV := func(name, content string) error {
		if *csv == "" {
			return nil
		}
		path := filepath.Join(*csv, name+".csv")
		err := os.WriteFile(path, []byte(content), 0o644)
		if err == nil {
			fmt.Fprintf(stdout, "  wrote %s\n", path)
		}
		return err
	}
	runExp := func(id string) error {
		if f, ok := figures[id]; ok {
			fig, err := f(w)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, fig)
			for _, s := range fig.Series {
				fmt.Fprintf(stdout, "  mean |est-act|/act for %q: %.2f\n", s.Label, s.MeanAbsRelErr())
			}
			err = writeCSV(id, fig.CSV())
			fmt.Fprintln(stdout)
			return err
		}
		if id == "estimation" {
			table, err := experiments.Estimation(w)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, table)
			return writeCSV(id, table.CSV())
		}
		if id == "faultsweep" {
			table, err := experiments.FaultSweep(w, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, table)
			return writeCSV(id, table.CSV())
		}
		if id == "table2" {
			rows, err := experiments.Table2(w)
			if err != nil {
				return err
			}
			table := experiments.RenderTable2(rows)
			fmt.Fprintln(stdout, table)
			fmt.Fprintf(stdout, "chosen algorithms in requirement order: %s\n\n",
				strings.Join(experiments.ChosenAlgorithms(rows), " "))
			return writeCSV(id, table.CSV())
		}
		return fmt.Errorf("unknown experiment %q", id)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig9", "fig10", "fig11", "fig12", "table2", "estimation", "faultsweep"}
	}
	for _, id := range ids {
		if err := runExp(id); err != nil {
			return err
		}
	}

	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	if w.Metrics != nil {
		fmt.Fprintln(stdout, "\nmetrics snapshot:")
		if err := w.Metrics.WritePrometheus(stdout); err != nil {
			return err
		}
	}
	return nil
}

// Command joinopt runs a quality-aware extraction join end to end on a
// synthetic HQ ⋈ EX workload:
//
//	joinopt -taug 16 -taub 160                 # adaptive optimization (§VI)
//	joinopt -taug 16 -taub 160 -mode optimize  # perfect-knowledge plan choice
//	joinopt -mode plan -jn OIJN -x1 SC         # execute one specific plan
//	joinopt -mode budget -budget 5000          # max good output within a time budget
//	joinopt -mode precision -taug 16 -prec 0.5 # precision-style preference
//
// It reports the chosen plan, the cost-model execution time, and the true
// output composition (graded against the generator's gold sets).
//
// Observability:
//
//	joinopt -trace run.ndjson    # write the structured execution trace
//	joinopt -metrics             # print the Prometheus-text metrics snapshot
//	joinopt -profile cpu.pprof   # write a CPU profile of the run
//	joinopt -pprof :6060         # serve net/http/pprof while running
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"

	"joinopt"
)

func main() {
	var (
		docs    = flag.Int("docs", 4000, "documents per text database")
		seed    = flag.Int64("seed", 1, "generation seed")
		tauG    = flag.Int("taug", 16, "minimum number of good join tuples (τg)")
		tauB    = flag.Int("taub", 160, "maximum number of bad join tuples (τb)")
		mode    = flag.String("mode", "adaptive", "adaptive|optimize|robust|plan|budget|precision|recall")
		sigma   = flag.Float64("sigma", 2, "robust mode: confidence margin in standard deviations")
		budget  = flag.Float64("budget", 5000, "budget mode: execution-time budget")
		prec    = flag.Float64("prec", 0.5, "precision mode: minimum output precision")
		recall  = flag.Float64("recall", 0.25, "recall mode: minimum fraction of achievable good tuples")
		jn      = flag.String("jn", "IDJN", "plan mode: join algorithm IDJN|OIJN|ZGJN")
		th1     = flag.Float64("theta1", 0.4, "plan mode: knob θ1 (minSim)")
		th2     = flag.Float64("theta2", 0.4, "plan mode: knob θ2 (minSim)")
		x1      = flag.String("x1", "SC", "plan mode: retrieval strategy for R1 (SC|FS|AQG)")
		x2      = flag.String("x2", "SC", "plan mode: retrieval strategy for R2 (SC|FS|AQG)")
		outer   = flag.Int("outer", 0, "plan mode: OIJN outer side (0 or 1)")
		show    = flag.Int("show", 5, "number of join tuples to print")
		workers = flag.Int("workers", 0, "optimizer plan-evaluation workers (0 = all cores, 1 = sequential)")

		execWorkers  = flag.Int("exec-workers", 0, "pipelined extraction workers per execution (0 = sequential; results are bit-identical at any setting)")
		shards       = flag.Int("shards", 0, "corpus shards, each a share of the extraction worker pool (0/1 = unsharded; output is bit-identical at any shard count)")
		extractCache = flag.Int64("extract-cache", 0, "shared extraction cache capacity in bytes (0 = disabled; one cache at any shard count)")

		faultsFlag = flag.String("faults", "", joinopt.FaultProfileHelp)
		retries    = flag.Int("retries", 0, "max retries per failed substrate call (0 = default 3, -1 = disabled)")
		failBudget = flag.Int("failure-budget", 0, "abort once this many documents per side are lost (0 = unlimited)")
		deadline   = flag.Float64("deadline", 0, "cost-model time deadline per execution (0 = none)")

		tracePath   = flag.String("trace", "", "write the NDJSON execution trace to this file")
		metricsFlag = flag.Bool("metrics", false, "print the Prometheus-text metrics snapshot after the run")
		profilePath = flag.String("profile", "", "write a CPU profile of the run to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address while running (e.g. :6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "joinopt: pprof server:", err)
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

	var runOpts []joinopt.RunOption
	var traceFile *joinopt.TraceFile
	if *tracePath != "" {
		var err error
		if traceFile, err = joinopt.CreateTraceFile(*tracePath); err != nil {
			fatal(err)
		}
		runOpts = append(runOpts, joinopt.WithTracer(joinopt.NewTrace(traceFile)))
	}
	var metrics *joinopt.Metrics
	if *metricsFlag {
		metrics = joinopt.NewMetrics()
		runOpts = append(runOpts, joinopt.WithMetrics(metrics))
	}
	// seal flushes the observability outputs; fatal paths skip it, keeping
	// partial traces on disk for post-mortem inspection.
	seal := func() {
		if traceFile != nil {
			if err := traceFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "joinopt: trace:", err)
			}
			fmt.Printf("\ntrace written to %s\n", *tracePath)
		}
		if metrics != nil {
			fmt.Println("\nmetrics snapshot:")
			if err := metrics.WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "joinopt: metrics:", err)
			}
		}
	}

	task, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: *docs, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	task.Workers = *workers
	task.ExecWorkers = *execWorkers
	task.Shards = *shards
	task.ExtractCacheBytes = *extractCache
	if task.Faults, err = joinopt.ParseFaultProfile(*faultsFlag); err != nil {
		fatal(err)
	}
	task.Retry = joinopt.RetryPolicy{MaxRetries: *retries, FailureBudget: *failBudget}
	task.Deadline = *deadline
	r1, r2 := task.Relations()
	d1, d2 := task.DatabaseSizes()
	fmt.Printf("task: %s (%d docs) ⋈ %s (%d docs)\n", r1, d1, r2, d2)
	fmt.Printf("gold join size (upper bound on good output): %d\n\n", task.GoldJoinSize())
	req := joinopt.Requirement{TauG: *tauG, TauB: *tauB}
	ctx := context.Background()

	// run executes and reports a deadline stop as a note, not a failure.
	run := func(req joinopt.Requirement, opts ...joinopt.RunOption) *joinopt.RunResult {
		res, err := task.Run(ctx, req, append(append([]joinopt.RunOption(nil), runOpts...), opts...)...)
		if errors.Is(err, joinopt.ErrDeadline) {
			fmt.Println("note: deadline cut the execution short")
			err = nil
		}
		if err != nil {
			fatal(err)
		}
		return res
	}

	switch *mode {
	case "adaptive":
		res := run(req)
		fmt.Printf("requirement: τg=%d τb=%d\n", req.TauG, req.TauB)
		for i, p := range res.Plans {
			fmt.Printf("decision %d: %s\n", i+1, p)
		}
		if n := len(res.CheckpointErrs); n > 0 {
			// Warn once; the full list is in joinopt_checkpoint_errors_total
			// and the trace's checkpoint.error events.
			fmt.Printf("warning: %d checkpoint optimization failure(s); run fell back to its current plan\n", n)
		}
		report(res.Outcome, *show)
		fmt.Printf("total cost-model time (incl. pilot): %.0f\n", res.TotalTime)
	case "optimize":
		best, err := task.Optimize(req)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("chosen plan: %s\n", best.Plan)
		fmt.Printf("predicted: good=%.0f bad=%.0f time=%.0f\n\n", best.EstimatedGood, best.EstimatedBad, best.EstimatedTime)
		res := run(req, joinopt.WithPlan(best.Plan), joinopt.WithStop(func(p joinopt.Progress) bool {
			return p.GoodTuples >= req.TauG
		}))
		report(res.Outcome, *show)
	case "plan":
		plan := joinopt.Plan{
			Algorithm: joinopt.Algorithm(*jn),
			Theta:     [2]float64{*th1, *th2},
			X:         [2]joinopt.Strategy{joinopt.Strategy(*x1), joinopt.Strategy(*x2)},
			OuterIdx:  *outer,
		}
		if plan.Algorithm == joinopt.OuterInnerJoin {
			inner := 1 - *outer
			plan.X[inner] = joinopt.QueryRetrieve
		}
		if plan.Algorithm == joinopt.ZigZagJoin {
			plan.X = [2]joinopt.Strategy{joinopt.QueryRetrieve, joinopt.QueryRetrieve}
		}
		res := run(req, joinopt.WithPlan(plan), joinopt.WithStop(func(p joinopt.Progress) bool {
			return p.GoodTuples >= req.TauG
		}))
		fmt.Printf("executed plan: %s\n", plan)
		report(res.Outcome, *show)
	case "robust":
		best, err := task.OptimizeRobust(req, *sigma)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("robust (%.0fσ) chosen plan: %s\n", *sigma, best.Plan)
		fmt.Printf("conservative bounds: good ≥ %.0f, bad ≤ %.0f, time %.0f\n",
			best.EstimatedGood, best.EstimatedBad, best.EstimatedTime)
	case "budget":
		best, err := task.OptimizeWithinBudget(*budget, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("time budget %.0f → plan: %s\n", *budget, best.Plan)
		fmt.Printf("predicted: good=%.0f bad=%.0f time=%.0f\n", best.EstimatedGood, best.EstimatedBad, best.EstimatedTime)
		res := run(req, joinopt.WithPlan(best.Plan), joinopt.WithStop(func(p joinopt.Progress) bool {
			return p.Time >= *budget
		}))
		report(res.Outcome, *show)
	case "precision":
		best, derived, err := task.OptimizePrecision(*tauG, *prec)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("precision ≥ %.2f with %d good → requirement τg=%d τb=%d\n", *prec, *tauG, derived.TauG, derived.TauB)
		fmt.Printf("chosen plan: %s (predicted good=%.0f bad=%.0f time=%.0f)\n",
			best.Plan, best.EstimatedGood, best.EstimatedBad, best.EstimatedTime)
	case "recall":
		best, derived, err := task.OptimizeRecall(*recall)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recall ≥ %.2f → requirement τg=%d τb=%d\n", *recall, derived.TauG, derived.TauB)
		fmt.Printf("chosen plan: %s (predicted good=%.0f bad=%.0f time=%.0f)\n",
			best.Plan, best.EstimatedGood, best.EstimatedBad, best.EstimatedTime)
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	seal()
}

func report(out *joinopt.Outcome, show int) {
	if out == nil {
		fmt.Println("no execution outcome")
		return
	}
	fmt.Printf("\nactual output: good=%d bad=%d (precision %.2f)\n",
		out.GoodTuples, out.BadTuples,
		float64(out.GoodTuples)/float64(max(1, out.GoodTuples+out.BadTuples)))
	fmt.Printf("work: processed=%v retrieved=%v queries=%v time=%.0f\n",
		out.DocsProcessed, out.DocsRetrieved, out.Queries, out.Time)
	if out.RetriesSpent != [2]int{} || out.DocsFailed != [2]int{} || out.Degraded || out.DeadlineHit {
		fmt.Printf("faults: retries=%v lost-docs=%v degraded=%v deadline-hit=%v\n",
			out.RetriesSpent, out.DocsFailed, out.Degraded, out.DeadlineHit)
	}
	tuples := out.Tuples()
	if show > len(tuples) {
		show = len(tuples)
	}
	if show > 0 {
		fmt.Printf("sample join tuples (%d of %d):\n", show, len(tuples))
		for _, t := range tuples[:show] {
			label := "good"
			if !t.Good {
				label = "bad "
			}
			fmt.Printf("  [%s] <%s, %s, %s>\n", label, t.A, t.B, t.C)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinopt:", err)
	os.Exit(1)
}

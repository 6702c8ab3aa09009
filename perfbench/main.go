// Command perfbench measures the joinopt stack end to end and layer by
// layer. It runs one of two workloads per invocation, each in a fresh
// process:
//
//	adaptive-8k  the paper's §VI adaptive protocol, Task.Run through the
//	             joinopt facade on the 8,000-document HQ⋈EX task
//	fleet-2r     two joinoptd replicas driven over loopback HTTP by one
//	             client with two connections
//
// The n-ary planner's layers are timed by direct calls in adaptive-8k's
// traced run: an n-ary workload's wall-clock tail tracked host CPU steal too
// closely for a bound to hold.
//
// Run it through run.sh from the repository root, which builds this command
// and joinoptd from the checkout first:
//
//	bash perfbench/run.sh --workload adaptive-8k --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// run's provenance and noise diagnostics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; --trace 1 repeats the workload
// with spans recorded from outside every layer and prints the per-layer
// metrics. Every operation's output is checked; the exit code is non-zero
// when a check fails or an operation errors.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// scale sizes a run. The benchmark uses fullScale; the self-test uses
// shortScale, which keeps every code path but finishes in seconds.
type scale struct {
	libDocs      int // documents per database, library workloads
	fleetDocs    int // documents per database, fleet-2r specs
	adaptiveTauG int // largest τg of the Table II rows adaptive-8k runs (0 = all)
	fleetTauG    int // largest τg of the rows fleet-2r runs
	setups       int // set-ups per untraced run; setup_s is their median
	probeDocs    int // documents (and value queries) per side in the direct layer calls
	portBase     int // first loopback port tried for the fleet's replicas
	rssAfter     int // timed fleet jobs after which the replicas' peak RSS is read
}

// fullScale: at 2,000 documents τg = 256 has no feasible plan on some
// seeds, so fleet-2r stops at τg = 128.
var fullScale = scale{libDocs: 8000, fleetDocs: 2000, fleetTauG: 128, setups: 3, probeDocs: 400, portBase: 47310, rssAfter: 200}

var shortScale = scale{libDocs: 1000, fleetDocs: 1000, adaptiveTauG: 16, fleetTauG: 16, setups: 1, probeDocs: 20, portBase: 47610, rssAfter: 10}

var workloadNames = []string{"adaptive-8k", "fleet-2r"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	joinoptd string // joinoptd binary, for fleet-2r
	out      string // directory for span files and the durable probe store
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opResult is the outcome of one operation: a Task.Run call, or a fleet job
// from its POST to the read of its result.
type opResult struct {
	latency  time.Duration
	failed   bool // errored, was refused, timed out or failed the output check
	mismatch bool // failed the output check
	why      string

	executed           bool // ran a join (optimize jobs do not)
	met                bool // good ≥ τg and bad ≤ τb
	modelTime, outTime float64
	docs, queries      int
	events, chosen     int

	submit    time.Duration // fleet: POST round trip
	proxied   bool          // fleet: the replica forwarded the job to its owner
	redirects int           // fleet: 307s followed
	refused   bool          // fleet: 429 or 503

	infeasible bool // fleet: the job failed because no plan meets its requirement
}

// runner drives one of the benchmark's workloads.
type runner interface {
	// setup builds the workload and runs its untimed warm-up pass; calling
	// it again replaces the previous set-up.
	setup(ctx context.Context, tr *tracer) error
	callers() int
	// op runs operation i of the closed loop on behalf of caller.
	op(ctx context.Context, caller, i int, tr *tracer) opResult
	// probe makes the direct layer calls of a traced run.
	probe(ctx context.Context, tr *tracer) (map[string]float64, error)
	// cpuSeconds is the CPU time of the processes under test so far.
	cpuSeconds() float64
	peakRSSMB() (float64, error)
	close() error
	info() map[string]any
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.joinoptd, "joinoptd", "", "joinoptd binary (fleet-2r)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench/run", "directory for span files and the durable probe store")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sc = fullScale
	if !slices.Contains(workloadNames, cfg.workload) || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, info, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := emit(os.Stdout, res, info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// emit prints the provenance and diagnostics line, then the result line.
func emit(w io.Writer, res result, info map[string]any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(info); err != nil {
		return err
	}
	return enc.Encode(res)
}

func newRunner(cfg config) (runner, error) {
	switch cfg.workload {
	case "adaptive-8k":
		return newLibrary(cfg.sc, cfg.seed), nil
	case "fleet-2r":
		if cfg.joinoptd == "" {
			return nil, errors.New("fleet-2r needs --joinoptd")
		}
		dir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("fleet-%d", os.Getpid())))
		if err != nil {
			return nil, err
		}
		return newFleet(cfg.sc, cfg.seed, cfg.joinoptd, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// run executes one benchmark run and returns its result line and its
// provenance and diagnostics. An error means no result: the workload could
// not be set up.
func run(ctx context.Context, cfg config) (result, map[string]any, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, nil, err
	}
	w, err := newRunner(cfg)
	if err != nil {
		return result{}, nil, err
	}
	diag := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace}
	info := map[string]any{"provenance": provenance(), "diagnostics": diag}
	var res result
	if cfg.trace {
		res, err = traced(ctx, cfg, w, diag)
	} else {
		res, err = untraced(ctx, cfg, w, diag)
	}
	diag["workload_info"] = w.info()
	closeErr := w.close()
	if err != nil {
		return result{}, nil, errors.Join(err, closeErr)
	}
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", closeErr)
		res.Correct = false
	}
	return res, info, nil
}

// untraced measures the end-to-end metrics: sc.setups set-ups, the last of
// which the timed phase runs on.
func untraced(ctx context.Context, cfg config, w runner, diag map[string]any) (result, error) {
	var setups []float64
	for range cfg.sc.setups {
		start := time.Now()
		if err := w.setup(ctx, nil); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	diag["setup_s"] = setups
	p := runPhase(ctx, w, cfg.seconds, nil)
	rss, err := w.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	p.describe(diag, "")
	res := p.result()
	completed := float64(len(p.ops) - res.Failed)
	lat := p.latencies()
	var met, executed float64
	var model []float64
	for _, o := range p.ops {
		if o.executed && !o.failed {
			executed++
			model = append(model, o.modelTime)
			if o.met {
				met++
			}
		}
	}
	res.Metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"latency_p50_ms":    {percentile(lat, 50), "ms"},
		"latency_p95_ms":    {percentile(lat, 95), "ms"},
		"throughput_ops_s":  {completed / p.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":     {ratio(p.cpu*1000, completed), "ms"},
		"max_rss_mb":        {rss, "MB"},
		"ok_frac":           {ratio(completed, float64(len(p.ops))), "ratio"},
		"req_met_frac":      {ratio(met, executed), "ratio"},
		"model_time_per_op": {mean(model), "model-time"},
	}
	return res, nil
}

// traced sets the workload up once, runs half the timed phase untraced and
// half traced, makes the direct layer calls, and derives the per-layer
// metrics from the spans. The spans are written to the output directory.
func traced(ctx context.Context, cfg config, w runner, diag map[string]any) (result, error) {
	tr := newTracer()
	if err := w.setup(ctx, tr); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain := runPhase(ctx, w, cfg.seconds/2, nil)
	var before map[string]float64
	f, isFleet := w.(*fleet)
	if isFleet {
		var err error
		if before, err = f.scrape(ctx, scraped...); err != nil {
			return result{}, err
		}
	}
	p := runPhase(ctx, w, cfg.seconds/2, tr)
	extra, err := w.probe(ctx, tr)
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	if isFleet {
		after, err := f.scrape(ctx, scraped...)
		if err != nil {
			return result{}, err
		}
		extra = fleetCounters(extra, before, after, p)
	}
	plain.describe(diag, "untraced_")
	p.describe(diag, "traced_")
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	diag["spans_file"] = path

	res, untracedRes := p.result(), plain.result()
	res.Attempted += untracedRes.Attempted
	res.Failed += untracedRes.Failed
	res.Correct = res.Correct && untracedRes.Correct
	res.Metrics = layerMetrics(tr, plain, p, extra)
	return res, nil
}

// phase is one timed phase of a run.
type phase struct {
	ops    []opResult
	wall   time.Duration
	cpu    float64 // CPU seconds of the processes under test
	gcFrac float64 // share of this process's CPU time spent in the GC
	steal  float64
	load   [2]float64
}

// runPhase runs the closed loop for the given seconds: each caller starts
// its next operation as soon as its previous one completes. An operation
// started before the deadline runs to completion.
func runPhase(ctx context.Context, w runner, seconds float64, tr *tracer) phase {
	var p phase
	host := readHostCPU()
	p.load[0] = loadAvg1()
	cpu := w.cpuSeconds()
	gc, total := gcCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var next atomic.Int64
	perCaller := make([][]opResult, w.callers())
	var wg sync.WaitGroup
	for c := range perCaller {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				perCaller[c] = append(perCaller[c], w.op(ctx, c, i, tr))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = w.cpuSeconds() - cpu
	gc2, total2 := gcCPU()
	if total2 > total {
		p.gcFrac = (gc2 - gc) / (total2 - total)
	}
	p.steal = stealFrac(host, readHostCPU())
	p.load[1] = loadAvg1()
	for _, ops := range perCaller {
		p.ops = append(p.ops, ops...)
	}
	return p
}

func (p phase) result() result {
	res := result{Correct: true, Attempted: len(p.ops)}
	for _, o := range p.ops {
		if o.failed {
			res.Failed++
			res.Correct = false
		}
	}
	return res
}

// latencies are the completed operations' latencies in milliseconds.
func (p phase) latencies() []float64 {
	var out []float64
	for _, o := range p.ops {
		if !o.failed {
			out = append(out, ms(o.latency))
		}
	}
	return out
}

// describe records the phase's sample count and noise diagnostics, and the
// first few failures.
func (p phase) describe(diag map[string]any, prefix string) {
	diag[prefix+"samples"] = len(p.latencies())
	diag[prefix+"wall_s"] = p.wall.Seconds()
	diag[prefix+"steal_frac"] = p.steal
	diag[prefix+"loadavg1"] = p.load
	var why []string
	for _, o := range p.ops {
		if o.failed && len(why) < 5 {
			why = append(why, o.why)
		}
	}
	if len(why) > 0 {
		diag[prefix+"failures"] = why
	}
}

// provenance identifies the code and the box a run measured.
func provenance() map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"kernel":        strings.TrimSpace(string(kernel)),
	}
}

// sourceDigest hashes the Go sources and module files under root, so a
// run taken outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

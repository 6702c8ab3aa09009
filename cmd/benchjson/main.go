// Command benchjson turns `go test -bench` output into a machine-readable
// JSON report, and checks the pipelined-executor speedup claims against one.
//
// Emit mode (default): parse benchmark lines from stdin and write
// BENCH_exec.json-style output to -o (or stdout). Repeated runs of the same
// benchmark (`-count 3`) are merged into one entry carrying the median of
// each metric and the sample count, so the recorded numbers are not
// single-run noise:
//
//	go test -run '^$' -bench 'BenchmarkExec' -count 3 . | benchjson -o BENCH_exec.json
//
// Every report records its provenance: the CPU count (nproc), GOMAXPROCS,
// the Go version, and the commit of the checkout the benchmarks ran in.
//
// Check mode: `benchjson -check BENCH_exec.json` verifies every
// BenchmarkExec*/seq vs /workers4 pair, plus the scatter-gather scaling pair
// BenchmarkExecShardedIDJN8k/shards1 vs /shards4. The report records the
// GOMAXPROCS the benchmarks ran under; on a single-CPU box a parallel
// speedup is impossible by construction, so a sub-2-CPU artifact is refused
// outright — it is not a valid comparison baseline, and treating it as one
// would let a mis-provisioned recording quietly disable every gate. Pass
// -allow-single-cpu to downgrade that refusal to a skip (exit 0) for local
// runs on small machines; -require-parallel keeps the refusal even then (CI
// sets it so the gate can never be bypassed). With 2–3 CPUs pipelined and
// sharded execution must at least not lose to sequential (within -slack); at
// 4+ CPUs the IDJN pair must reach -min-speedup (default 2×) and the
// shards1/shards4 pair must reach -min-shard-speedup (default 2.5×).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's merged result: the median over its repeated
// runs (Samples of them) for each metric.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples,omitempty"`
}

// Report is the BENCH_exec.json schema.
type Report struct {
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"go_max_procs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// commit names the checkout the benchmarks ran in: HEAD's hash, with a
// -dirty suffix when tracked files other than the report itself differ
// from HEAD, and "unknown" outside a git checkout.
func commit(report string) string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := string(bytes.TrimSpace(head))
	args := []string{"status", "--porcelain", "--untracked-files=no", "--", "."}
	if report != "" && filepath.IsLocal(report) {
		args = append(args, ":(exclude)"+report)
	}
	if st, err := exec.Command("git", args...).Output(); err != nil || len(bytes.TrimSpace(st)) > 0 {
		c += "-dirty"
	}
	return c
}

// benchLine matches `BenchmarkName-8   12   3456 ns/op   78 B/op   9 allocs/op`;
// the trailing -N is the GOMAXPROCS suffix the test runner appends.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func parse(lines *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(lines.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iterations in %q: %w", lines.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("ns/op in %q: %w", lines.Text(), err)
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns, Samples: 1}
		// The remainder holds `<v> B/op` and `<v> allocs/op` value/unit pairs.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			}
		}
		out = append(out, b)
	}
	return out, lines.Err()
}

// median returns the middle value of xs (the lower middle for even counts,
// which is the conservative — slower — choice for timing samples).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)-1)/2]
}

// merge collapses repeated runs of the same benchmark (`-count N`) into one
// entry per name holding the median of each metric, in first-seen order.
func merge(benches []Benchmark) []Benchmark {
	byName := map[string][]Benchmark{}
	var order []string
	for _, b := range benches {
		if _, seen := byName[b.Name]; !seen {
			order = append(order, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		pick := func(metric func(Benchmark) float64) float64 {
			xs := make([]float64, len(runs))
			for i, r := range runs {
				xs[i] = metric(r)
			}
			return median(xs)
		}
		var iters int64
		for _, r := range runs {
			iters += r.Iterations
		}
		out = append(out, Benchmark{
			Name:        name,
			Iterations:  iters,
			NsPerOp:     pick(func(b Benchmark) float64 { return b.NsPerOp }),
			BytesPerOp:  pick(func(b Benchmark) float64 { return b.BytesPerOp }),
			AllocsPerOp: pick(func(b Benchmark) float64 { return b.AllocsPerOp }),
			Samples:     len(runs),
		})
	}
	return out
}

// check verifies the seq-vs-workers4 and shards1-vs-shards4 pairs in a
// previously emitted report.
func check(path string, minSpeedup, minShardSpeedup, slack float64, requireParallel, allowSingleCPU bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("benchjson: %s recorded at commit %s, nproc %d, go_max_procs %d, %s\n",
		path, rep.Commit, rep.NProc, rep.GoMaxProcs, rep.GoVersion)
	if rep.GoMaxProcs < 2 {
		if allowSingleCPU && !requireParallel {
			fmt.Printf("benchjson: GOMAXPROCS=%d — parallel speedup not measurable on this machine, skipping check (-allow-single-cpu)\n", rep.GoMaxProcs)
			return nil
		}
		return fmt.Errorf("report was produced at GOMAXPROCS=%d: a single-CPU artifact is not a valid "+
			"comparison baseline (re-record BENCH_exec.json on a >= 2-core machine, or pass "+
			"-allow-single-cpu to skip the check on this one)", rep.GoMaxProcs)
	}
	byName := map[string]Benchmark{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	pairs := 0
	for name, seq := range byName {
		if !strings.HasSuffix(name, "/seq") || !strings.HasPrefix(name, "BenchmarkExec") {
			continue
		}
		par, ok := byName[strings.TrimSuffix(name, "/seq")+"/workers4"]
		if !ok {
			return fmt.Errorf("%s has no workers4 counterpart", name)
		}
		pairs++
		speedup := seq.NsPerOp / par.NsPerOp
		fmt.Printf("benchjson: [go_max_procs=%d] %-24s seq %.0f ns/op, workers4 %.0f ns/op, speedup %.2fx\n",
			rep.GoMaxProcs, strings.TrimSuffix(strings.TrimPrefix(name, "Benchmark"), "/seq"), seq.NsPerOp, par.NsPerOp, speedup)
		if speedup < 1/(1+slack) {
			return fmt.Errorf("%s: 4-worker pipeline is %.2fx slower than sequential (allowed slack %.0f%%)",
				name, 1/speedup, slack*100)
		}
		if rep.GoMaxProcs >= 4 && strings.Contains(name, "IDJN") && speedup < minSpeedup {
			return fmt.Errorf("%s: speedup %.2fx below the required %.1fx at GOMAXPROCS=%d",
				name, speedup, minSpeedup, rep.GoMaxProcs)
		}
	}
	if pairs == 0 {
		return fmt.Errorf("%s holds no BenchmarkExec*/seq results", path)
	}

	// The scatter-gather scaling gate: shards4 vs the shards1 sequential
	// baseline of the sharded IDJN benchmark. A report missing the pair is an
	// error — the gate must not silently pass because the benchmark was
	// dropped from the recording regex.
	const shardBench = "BenchmarkExecShardedIDJN8k"
	one, okOne := byName[shardBench+"/shards1"]
	four, okFour := byName[shardBench+"/shards4"]
	if !okOne || !okFour {
		return fmt.Errorf("%s holds no %s/shards1 + /shards4 pair — re-record with the shard benchmark included", path, shardBench)
	}
	shardSpeedup := one.NsPerOp / four.NsPerOp
	fmt.Printf("benchjson: [go_max_procs=%d] %-24s shards1 %.0f ns/op, shards4 %.0f ns/op, speedup %.2fx\n",
		rep.GoMaxProcs, strings.TrimPrefix(shardBench, "Benchmark"), one.NsPerOp, four.NsPerOp, shardSpeedup)
	if shardSpeedup < 1/(1+slack) {
		return fmt.Errorf("%s: 4-shard execution is %.2fx slower than unsharded (allowed slack %.0f%%)",
			shardBench, 1/shardSpeedup, slack*100)
	}
	if rep.GoMaxProcs >= 4 && shardSpeedup < minShardSpeedup {
		return fmt.Errorf("%s: shard speedup %.2fx below the required %.1fx at GOMAXPROCS=%d",
			shardBench, shardSpeedup, minShardSpeedup, rep.GoMaxProcs)
	}
	return nil
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	checkPath := flag.String("check", "", "check an existing report instead of emitting one")
	minSpeedup := flag.Float64("min-speedup", 2.0, "required IDJN seq/workers4 speedup at GOMAXPROCS >= 4")
	minShardSpeedup := flag.Float64("min-shard-speedup", 2.5, "required ExecShardedIDJN8k shards1/shards4 speedup at GOMAXPROCS >= 4")
	slack := flag.Float64("slack", 0.10, "allowed fractional regression of workers4 vs seq (and shards4 vs shards1)")
	requireParallel := flag.Bool("require-parallel", false,
		"refuse -check even with -allow-single-cpu when the report was recorded at GOMAXPROCS < 2")
	allowSingleCPU := flag.Bool("allow-single-cpu", false,
		"skip -check (exit 0) instead of refusing when the report was recorded at GOMAXPROCS < 2")
	flag.Parse()

	if *checkPath != "" {
		if err := check(*checkPath, *minSpeedup, *minShardSpeedup, *slack, *requireParallel, *allowSingleCPU); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	benches, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep := Report{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(*out), Benchmarks: merge(benches),
	}
	fmt.Fprintf(os.Stderr, "benchjson: nproc=%d go_max_procs=%d go=%s commit=%s benchmarks=%d (medians over repeated runs)\n",
		rep.NProc, rep.GoMaxProcs, rep.GoVersion, rep.Commit, len(rep.Benchmarks))
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

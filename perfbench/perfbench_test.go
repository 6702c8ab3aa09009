package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"joinopt/internal/service"
)

// benchmarkFile is the repository's BENCHMARK.json: the metrics every run
// must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestShortRuns runs every workload for a few operations at reduced
// corpus sizes, untraced and traced, and requires each run to pass its
// output checks and print every metric BENCHMARK.json names, with its
// unit. It makes no timing assertions.
func TestShortRuns(t *testing.T) {
	bf := readBenchmarkFile(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "joinoptd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/joinoptd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building joinoptd: %v\n%s", err, out)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !equalSets(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.5, trace: trace, sc: shortScale, joinoptd: bin, out: dir}
			res, info, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v", name, trace, res.Correct, res.Attempted, res.Failed, info)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCheckCatchesTampering feeds the output check results that differ
// from the first execution and expects each to fail the operation and the
// run.
func TestCheckCatchesTampering(t *testing.T) {
	ctx := context.Background()
	l := newLibrary(shortScale, 1)
	if err := l.setup(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if r := l.op(ctx, 0, 0, nil); r.failed {
		t.Fatalf("untampered op failed: %s", r.why)
	}
	key := strconv.Itoa(l.order[0])
	ref := l.check.refs[key]
	ref.Good++
	l.check.refs[key] = ref
	r := l.op(ctx, 0, 0, nil)
	if !r.failed || !r.mismatch {
		t.Fatalf("tampered reference not caught: %+v", r)
	}
	if (phase{ops: []opResult{{}, r}}).result().Correct {
		t.Fatal("a run with a mismatching op reports correct")
	}

	c := newChecker()
	job := &service.JobResult{Mode: service.ModeAdaptive, Plans: []string{"a", "b"}, Good: 9, Bad: 3, Time: 100, CacheSaved: [2]float64{20, 5}}
	if !c.match("k", jobFingerprint(job)) {
		t.Fatal("first result must become the reference")
	}
	warm := *job
	warm.Time, warm.CacheSaved = 80, [2]float64{40, 5}
	if !c.match("k", jobFingerprint(&warm)) {
		t.Fatal("a warmer cache moving time into CacheSaved must still match")
	}
	for _, tamper := range []func(*service.JobResult){
		func(j *service.JobResult) { j.Bad++ },
		func(j *service.JobResult) { j.Plans = j.Plans[:1] },
		func(j *service.JobResult) { j.Time += 1 },
	} {
		bad := *job
		tamper(&bad)
		if c.match("k", jobFingerprint(&bad)) {
			t.Errorf("tampered job result %+v matched", bad)
		}
	}
}

// TestDesignRecord requires design.json to describe every metric
// BENCHMARK.json names.
func TestDesignRecord(t *testing.T) {
	bf := readBenchmarkFile(t)
	b, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		Workloads map[string]any `json:"workloads"`
		EndToEnd  map[string]any `json:"end_to_end"`
		PerLayer  map[string]struct {
			MeasuredAs string   `json:"measured_as"`
			Moves      []string `json:"moves"`
			Work       string   `json:"work"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &design); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if design.Workloads[w.Name] == nil {
			t.Errorf("design.json does not describe workload %s", w.Name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
		if design.EndToEnd[m.Name] == nil {
			t.Errorf("design.json does not define end-to-end metric %s", m.Name)
		}
	}
	for _, m := range bf.PerLayer {
		d, ok := design.PerLayer[m.Name]
		if !ok || d.MeasuredAs == "" || d.Work == "" {
			t.Errorf("design.json does not describe per-layer metric %s", m.Name)
		}
		for _, mv := range d.Moves {
			if !e2e[mv] {
				t.Errorf("per-layer metric %s moves unknown end-to-end metric %s", m.Name, mv)
			}
		}
	}
	if len(design.PerLayer) != len(bf.PerLayer) {
		t.Errorf("design.json describes %d per-layer metrics, BENCHMARK.json names %d", len(design.PerLayer), len(bf.PerLayer))
	}
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

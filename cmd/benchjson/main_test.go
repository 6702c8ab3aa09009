package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck runs the check over synthetic reports. Every case checks the
// report twenty times: the printed lines and the failures must come out the
// same, in name order, every time.
func TestCheck(t *testing.T) {
	bench := func(name string, ns float64) Benchmark { return Benchmark{Name: name, NsPerOp: ns} }
	// pairs returns the three executor pairs at the given workers4 times
	// against a 100 ns baseline.
	pairs := func(idjn, oijn, zgjn float64) []Benchmark {
		return []Benchmark{
			bench("BenchmarkExecZGJN8k/seq", 100), bench("BenchmarkExecZGJN8k/workers4", zgjn),
			bench("BenchmarkExecIDJN8k/seq", 100), bench("BenchmarkExecIDJN8k/workers4", idjn),
			bench("BenchmarkExecOIJN8k/seq", 100), bench("BenchmarkExecOIJN8k/workers4", oijn),
		}
	}
	cases := []struct {
		name            string
		procs           int
		benches         []Benchmark
		minSpeedup      float64 // 0 = the -min-speedup default
		allowSingle     bool
		requireParallel bool
		lines           []string // printed pair lines, by prefix, in order
		errs            []string // failures, by substring, in order; none = pass
	}{
		{
			name: "all within slack", procs: 2, benches: pairs(105, 95, 109),
			lines: []string{"ExecIDJN8k ", "ExecOIJN8k ", "ExecZGJN8k "},
		},
		{
			name: "every failing pair reported", procs: 2, benches: pairs(117, 125, 150),
			lines: []string{"ExecIDJN8k ", "ExecOIJN8k ", "ExecZGJN8k "},
			errs: []string{"BenchmarkExecIDJN8k/seq: 4-worker pipeline is 1.17x slower",
				"BenchmarkExecOIJN8k/seq: 4-worker pipeline is 1.25x slower",
				"BenchmarkExecZGJN8k/seq: 4-worker pipeline is 1.50x slower"},
		},
		{
			name: "speedup floors at four CPUs", procs: 4, benches: pairs(60, 90, 90),
			errs: []string{"BenchmarkExecIDJN8k/seq: speedup 1.67x below the required 2.5x"},
		},
		{
			name: "IDJN at 2.2x passes a 2.0x floor", procs: 4, benches: pairs(100/2.2, 90, 90), minSpeedup: 2.0,
			lines: []string{"ExecIDJN8k ", "ExecOIJN8k ", "ExecZGJN8k "},
		},
		{
			name: "IDJN at 2.2x fails the default floor", procs: 4, benches: pairs(100/2.2, 90, 90),
			errs: []string{"BenchmarkExecIDJN8k/seq: speedup 2.20x below the required 2.5x"},
		},
		{
			name: "missing counterparts", procs: 2,
			benches: []Benchmark{bench("BenchmarkExecOIJN8k/seq", 100), bench("BenchmarkExecZGJN8k/seq", 100), bench("BenchmarkExecZGJN8k/workers4", 90)},
			errs: []string{"BenchmarkExecOIJN8k/seq has no workers4 counterpart",
				"no BenchmarkExecIDJN8k/seq + /workers4 pair"},
		},
		{
			name: "no results", procs: 2, benches: []Benchmark{bench("BenchmarkChoosePlanSpace8k/seq", 100)},
			errs: []string{"holds no BenchmarkExec*/seq results", "no BenchmarkExecIDJN8k/seq + /workers4 pair"},
		},
		{name: "single CPU skipped", procs: 1, benches: pairs(200, 200, 200), allowSingle: true},
		{
			name: "single CPU refused", procs: 1, benches: pairs(100, 100, 100), allowSingle: true, requireParallel: true,
			errs: []string{"single-CPU artifact"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := json.Marshal(Report{NProc: c.procs, GoMaxProcs: c.procs, Benchmarks: c.benches})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "report.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var first string
			for i := 0; i < 20; i++ {
				var out strings.Builder
				err := check(&out, path, cmp.Or(c.minSpeedup, defaultMinSpeedup), 0.10, c.requireParallel, c.allowSingle)
				got := out.String()
				if err != nil {
					got += "error: " + err.Error()
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("check %d printed\n%s\nthe first printed\n%s", i+1, got, first)
				}
			}
			if !inOrder(first, c.lines) {
				t.Errorf("pair lines not printed in order %q:\n%s", c.lines, first)
			}
			_, errs, failed := strings.Cut(first, "error: ")
			if failed != (len(c.errs) > 0) {
				t.Fatalf("failed = %v, want %v:\n%s", failed, len(c.errs) > 0, first)
			}
			if !inOrder(errs, c.errs) {
				t.Errorf("failures not reported in order %q:\n%s", c.errs, first)
			}
		})
	}
}

// inOrder reports whether every part occurs in s, each after the previous.
func inOrder(s string, parts []string) bool {
	for _, p := range parts {
		i := strings.Index(s, p)
		if i < 0 {
			return false
		}
		s = s[i+len(p):]
	}
	return true
}

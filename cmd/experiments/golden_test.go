package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/docs4000_seed1.golden from the current code")

const goldenPath = "testdata/docs4000_seed1.golden"

// TestReproductionGolden re-runs `experiments -docs 4000 -seed 1`, the
// reproduction EXPERIMENTS.md reports, and requires its output byte for
// byte: every figure, Table II, the estimation table and the fault sweep.
// Regenerate with -update only for a change meant to move the results.
func TestReproductionGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-docs", "4000", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output drifted from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

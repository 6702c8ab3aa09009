package estimate_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/estimate"
	"joinopt/internal/optimizer"
	"joinopt/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pilot8k.golden from the current estimator")

const goldenPath = "testdata/pilot8k.golden"

var (
	pilotOnce sync.Once
	pilotObs  [2]estimate.Observation
	pilotErr  error
)

// pilot8k returns both sides' observations after the adaptive protocol's
// estimation pilot on the default 8k-document HQ ⋈ EX workload — the
// observations every Estimate call of a default adaptive run starts from.
func pilot8k(tb testing.TB) [2]estimate.Observation {
	tb.Helper()
	pilotOnce.Do(func() {
		w, err := workload.HQJoinEX(workload.Params{NumDocs: 8000, Seed: 1})
		if err != nil {
			pilotErr = err
			return
		}
		env, err := w.NewEnv([]float64{0.4, 0.8})
		if err != nil {
			pilotErr = err
			return
		}
		_, st, err := optimizer.PilotEstimate(env, optimizer.Options{})
		if err != nil {
			pilotErr = err
			return
		}
		for side := 0; side < 2; side++ {
			tp, fp := env.Rates(side, env.Thetas[0])
			pilotObs[side] = estimate.FromState(st, side, env.NumDocs[side], tp, fp, env.BadInGoodPrior)
		}
	})
	if pilotErr != nil {
		tb.Fatal(pilotErr)
	}
	return pilotObs
}

// dumpValue writes every leaf field of v, one per line: floats as their
// IEEE-754 bits (plus the decimal value for a human reader), ints in
// decimal, slices with their length. New fields of the dumped types are
// picked up without touching the test.
func dumpValue(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s nil\n", path)
			return
		}
		dumpValue(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpValue(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		f := v.Float()
		fmt.Fprintf(b, "%s %#016x %v\n", path, math.Float64bits(f), f)
	case reflect.Int:
		fmt.Fprintf(b, "%s %d\n", path, v.Int())
	default:
		panic(fmt.Sprintf("dumpValue: %s has unsupported kind %s", path, v.Kind()))
	}
}

// dumpEstimates renders Estimate and CrossValidate on both sides and the
// PairSplit of the two fits.
func dumpEstimates(obs [2]estimate.Observation) (string, error) {
	var b strings.Builder
	var ests [2]*estimate.Estimated
	for side := range obs {
		e, err := estimate.Estimate(obs[side])
		if err != nil {
			return "", err
		}
		ests[side] = e
		dumpValue(&b, fmt.Sprintf("side%d.Estimate", side+1), reflect.ValueOf(e))
		div, err := estimate.CrossValidate(obs[side])
		if err != nil {
			return "", err
		}
		dumpValue(&b, fmt.Sprintf("side%d.CrossValidate", side+1), reflect.ValueOf(div))
	}
	// PairSplit is compared at 12 significant digits: its golden lines were
	// written when its sum followed map iteration order, so their last bits
	// carry no meaning. TestPairSplitDeterministic pins its bits instead.
	good, bad := estimate.PairSplit(obs[0], obs[1], ests[0], ests[1])
	fmt.Fprintf(&b, "PairSplit.good %.12g\nPairSplit.bad %.12g\n", good, bad)
	return b.String(), nil
}

// TestEstimatePilot8kGolden pins the estimator's outputs on a real 8k pilot
// observation: every Estimated and RelationParams field of both sides' fits
// and both cross-validation divergences bit for bit, and the PairSplit.
// Regenerate with -update only for a change meant to move the estimates.
func TestEstimatePilot8kGolden(t *testing.T) {
	got, err := dumpEstimates(pilot8k(t))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
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
				t.Fatalf("estimates drifted from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("estimates drifted from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

// TestPairSplitDeterministic asserts PairSplit is a function of its inputs
// down to the last bit: repeated calls on the 8k pilot observations, whose
// (c1, c2) tally map Go iterates in a different order each time, return the
// identical floats.
func TestPairSplitDeterministic(t *testing.T) {
	obs := pilot8k(t)
	var ests [2]*estimate.Estimated
	for side := range obs {
		e, err := estimate.Estimate(obs[side])
		if err != nil {
			t.Fatal(err)
		}
		ests[side] = e
	}
	good0, bad0 := estimate.PairSplit(obs[0], obs[1], ests[0], ests[1])
	for i := 1; i < 50; i++ {
		good, bad := estimate.PairSplit(obs[0], obs[1], ests[0], ests[1])
		if math.Float64bits(good) != math.Float64bits(good0) || math.Float64bits(bad) != math.Float64bits(bad0) {
			t.Fatalf("call %d: PairSplit = (%v, %v), first call (%v, %v)", i, good, bad, good0, bad0)
		}
	}
}

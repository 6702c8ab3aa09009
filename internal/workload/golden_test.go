package workload_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"joinopt/internal/experiments"
	"joinopt/internal/optimizer"
	"joinopt/internal/querygraph"
	"joinopt/internal/relation"
	"joinopt/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current workload code")

const goldenPath = "testdata/true_inputs.golden"

var goldenThetas = []float64{0.4, 0.8}

// dumpValue writes every exported leaf field of v, one per line: floats as
// their IEEE-754 bits (plus the decimal value for a human reader), ints in
// decimal, slices and arrays with their length. Funcs are skipped; the
// caller dumps what they return. New fields of the dumped types are picked
// up without touching the test.
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
			if f := v.Type().Field(i); f.IsExported() {
				dumpValue(b, path+"."+f.Name, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpValue(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Float64:
		f := v.Float()
		fmt.Fprintf(b, "%s %#016x %v\n", path, math.Float64bits(f), f)
	case reflect.Int:
		fmt.Fprintf(b, "%s %d\n", path, v.Int())
	case reflect.Func:
	default:
		panic(fmt.Sprintf("dumpValue: %s has unsupported kind %s", path, v.Kind()))
	}
}

// dumpInputs renders binary and n-ary perfect-knowledge inputs, including
// the n-ary class-mask counts of every relation subset.
func dumpInputs(in *optimizer.Inputs, nin *optimizer.NaryInputs) string {
	var b strings.Builder
	dumpValue(&b, "binary", reflect.ValueOf(in))
	dumpValue(&b, "nary", reflect.ValueOf(nin))
	for subset := uint64(1); subset < 1<<len(nin.P); subset++ {
		classes := nin.Classes(subset)
		masks := make([]relation.ClassMask, 0, len(classes))
		for m := range classes {
			masks = append(masks, m)
		}
		slices.Sort(masks)
		for _, m := range masks {
			fmt.Fprintf(&b, "nary.Classes(%#b)[%#b] %d\n", subset, m, classes[m])
		}
	}
	return b.String()
}

// trueInputs returns the perfect-knowledge inputs of both pinned workloads.
func trueInputs(t *testing.T, w *workload.Workload, mw *workload.MultiWorkload) (*optimizer.Inputs, *optimizer.NaryInputs) {
	t.Helper()
	in, err := w.TrueInputs(goldenThetas)
	if err != nil {
		t.Fatal(err)
	}
	nin, err := mw.TrueNaryInputs(goldenThetas)
	if err != nil {
		t.Fatal(err)
	}
	return in, nin
}

// TestTrueInputsGolden pins the perfect-knowledge optimizer inputs bit for
// bit: TrueInputs on HQ ⋈ EX and TrueNaryInputs on HQ ⋈ EX ⋈ MG. The first
// inputs are dumped after plan search has run over every Table II row, and
// a second request (from a clone, for the binary workload) must match too,
// so a consumer writing into a slice the inputs share shows up here.
// Regenerate with -update only for a change meant to move the inputs.
func TestTrueInputsGolden(t *testing.T) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mw, err := workload.Multi(workload.Params{NumDocs: 1000, Seed: 1}, []string{"HQ", "EX", "MG"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := querygraph.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	in, nin := trueInputs(t, w, mw)
	plans := optimizer.Enumerate(goldenThetas)
	for _, req := range experiments.Table2Reqs {
		// An infeasible row still evaluates every plan; only an evaluation
		// error leaves no evaluations behind.
		if _, evals, err := optimizer.Choose(plans, in, req); evals == nil {
			t.Fatalf("Choose %+v: %v", req, err)
		}
		if _, evals, err := optimizer.ChooseNary(g, nin, req); evals == nil {
			t.Fatalf("ChooseNary %+v: %v", req, err)
		}
	}
	got := dumpInputs(in, nin)
	again := dumpInputs(trueInputs(t, w.Clone(), mw))
	if again != got {
		t.Fatal("a second request returned different inputs than the first after plan search")
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
				t.Fatalf("inputs drifted from %s at line %d:\n got  %s\n want %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("inputs drifted from %s: %d lines, want %d", goldenPath, len(gl), len(wl))
	}
}

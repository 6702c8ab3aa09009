package workload_test

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"joinopt/internal/classifier"
	"joinopt/internal/workload"
)

const trainedGoldenPath = "testdata/trained_models.golden"

// dumpModel writes every leaf of a trained model, unexported fields
// included, one per line: floats as their IEEE-754 bits (plus the decimal
// value for a human reader), strings quoted, maps in sorted key order.
func dumpModel(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprintf(b, "%s nil\n", path)
			return
		}
		dumpModel(b, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dumpModel(b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(b, "%s len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			dumpModel(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
		fmt.Fprintf(b, "%s len=%d\n", path, len(keys))
		for _, k := range keys {
			dumpModel(b, fmt.Sprintf("%s[%q]", path, k.String()), v.MapIndex(k))
		}
	case reflect.Float64:
		f := v.Float()
		fmt.Fprintf(b, "%s %#016x %v\n", path, math.Float64bits(f), f)
	case reflect.Int:
		fmt.Fprintf(b, "%s %d\n", path, v.Int())
	case reflect.String:
		fmt.Fprintf(b, "%s %q\n", path, v.String())
	default:
		panic(fmt.Sprintf("dumpModel: %s has unsupported kind %s", path, v.Kind()))
	}
}

// TestTrainedModelsGolden pins the models every workload trains on its
// training splits, bit for bit: each side's Filtered Scan classifier (the
// rule set, or the naive-Bayes fallback's weights) and its AQG queries.
// It covers adaptive-8k's corpus (HQ ⋈ EX, 8,000 docs, seed 1) and the
// four 2,000-document specs fleet-2r runs (seeds 1, 2, 4 and 5). On the
// 8k corpus it also pins naive Bayes trained directly, since no pinned
// workload falls back to it. Regenerate with -update only for a change
// meant to move the models.
func TestTrainedModelsGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range []workload.Params{
		{NumDocs: 8000, Seed: 1},
		{NumDocs: 2000, Seed: 1},
		{NumDocs: 2000, Seed: 2},
		{NumDocs: 2000, Seed: 4},
		{NumDocs: 2000, Seed: 5},
	} {
		w, err := workload.HQJoinEX(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			side := fmt.Sprintf("docs=%d/seed=%d/%s", p.NumDocs, p.Seed, w.Task[i])
			fmt.Fprintf(&b, "%s.cls %T\n", side, w.Cls[i])
			dumpModel(&b, side+".cls", reflect.ValueOf(w.Cls[i]))
			dumpModel(&b, side+".queries", reflect.ValueOf(w.AQGQueries[i]))
			if p.NumDocs == 8000 {
				bayes, err := classifier.TrainBayes(w.Train[i], w.Task[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				dumpModel(&b, side+".bayes", reflect.ValueOf(bayes))
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(trainedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(trainedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trained models drifted from %s at line %d:\n got  %s\n want %s", trainedGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trained models drifted from %s: %d lines, want %d", trainedGoldenPath, len(gl), len(wl))
	}
}

package optimizer_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/experiments"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
)

// keyInputs returns an input set with every field set, no two slices
// sharing an array, and a nil CacheHitRate and RectangleRatios, so that the
// memo holds it.
func keyInputs() *optimizer.Inputs {
	params := func(seed int) *model.RelationParams {
		f := float64(seed)
		return &model.RelationParams{
			D: 1000 + seed, Dg: 150 + seed, Db: 80 + seed, Ag: 90 + seed, Ab: 60 + seed,
			GoodFreq: []float64{0.5 + f, 0.3, 0.2}, BadFreq: []float64{0.7, 0.3 + f},
			TP: 0.8, FP: 0.1 + f, BadInGoodFrac: 0.3, Ctp: 0.9, Cfp: 0.2,
			AQG:  []model.QueryParam{{Hits: 10 + seed, GoodHits: 6, BadHits: 2}, {Hits: 5, GoodHits: 1, BadHits: 3}},
			TopK: 10 + seed, QPrec: 0.5, ValuesPerDoc: []float64{0.4, 0.5, 0.1 + f},
		}
	}
	return &optimizer.Inputs{
		Thetas: []float64{0.4, 0.8},
		P: [2][]*model.RelationParams{
			{params(1), params(2)},
			{params(3), params(4)},
		},
		Ov:          model.Overlaps{Agg: 30, Agb: 10, Abg: 12, Abb: 5},
		Costs:       [2]model.Costs{{TR: 1, TE: 5, TF: 0.1, TQ: 2}, {TR: 1.5, TE: 6, TF: 0.2, TQ: 3}},
		CasualHits:  [2]float64{0.2, 0.3},
		Mentioned:   [2]int{400, 420},
		SeedCount:   3,
		RobustSigma: 1.5,
		Workers:     2,
		ExecWorkers: 4,
	}
}

// perturbations walks v and calls visit once per minimal change that can
// be made to it: every int and float reachable through structs, arrays,
// slices and pointers moves by one unit (floats to the next representable
// value), every slice grows by one element and every pointer can be set to
// nil. A field of any other kind fails the test, so a field added to Inputs
// or RelationParams later must be taught to the key and to this test.
func perturbations(t *testing.T, v reflect.Value, path string, visit func(path string, perturb func())) {
	switch v.Kind() {
	case reflect.Int:
		visit(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Float64:
		visit(path, func() { v.SetFloat(math.Nextafter(v.Float(), math.Inf(1))) })
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbations(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Slice:
		visit(path+" (append)", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := 0; i < v.Len(); i++ {
			perturbations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Pointer:
		visit(path+" (nil)", func() { v.Set(reflect.Zero(v.Type())) })
		if !v.IsNil() {
			perturbations(t, v.Elem(), path, visit)
		}
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// TestMemoKeyCoversEveryEvaluatedField perturbs every field of Inputs and
// of each RelationParams in turn, slices included. Each change must give
// the input set another memo key, or make the memo refuse it, except the
// changes to Workers and ExecWorkers, which no evaluation reads. So two
// input sets that differ anywhere plan evaluation could look never share
// one entry, and a field added later fails here until the key covers it.
func TestMemoKeyCoversEveryEvaluatedField(t *testing.T) {
	base := optimizer.MemoKey(keyInputs())
	if base == nil {
		t.Fatal("the memo refuses the base input set")
	}
	var paths []string
	perturbations(t, reflect.ValueOf(keyInputs()).Elem(), "Inputs", func(path string, _ func()) { paths = append(paths, path) })
	for n, path := range paths {
		in := keyInputs()
		i := 0
		perturbations(t, reflect.ValueOf(in).Elem(), "Inputs", func(_ string, perturb func()) {
			if i == n {
				perturb()
			}
			i++
		})
		key := optimizer.MemoKey(in)
		excluded := strings.HasPrefix(path, "Inputs.Workers") || strings.HasPrefix(path, "Inputs.ExecWorkers")
		switch {
		case excluded && !bytes.Equal(key, base):
			t.Errorf("%s: the key changed, but no evaluation reads the field", path)
		case !excluded && key != nil && bytes.Equal(key, base):
			t.Errorf("%s: the key did not change", path)
		}
	}
	if len(paths) < 50 {
		t.Fatalf("only %d perturbations; the walk missed fields", len(paths))
	}
}

// TestMemoChooseMatchesChoose: over every Table II row, on perfect-knowledge
// inputs with and without a robustness margin and on pilot inputs, the
// memo's Choose returns exactly what Choose returns, cold and warm, from
// concurrent callers sharing one memo.
func TestMemoChooseMatchesChoose(t *testing.T) {
	w, truth := testSetup(t)
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	pilot, _, err := optimizer.PilotEstimate(env, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	robust := *truth
	robust.RobustSigma = 2
	plans := optimizer.Enumerate(thetas)
	m := &optimizer.Memo{}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for _, in := range []*optimizer.Inputs{truth, &robust, pilot} {
					for _, req := range experiments.Table2Reqs {
						want, wantEvals, wantErr := optimizer.Choose(plans, in, req)
						got, gotEvals, gotErr := m.Choose(plans, in, req)
						if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want || !reflect.DeepEqual(gotEvals, wantEvals) {
							t.Errorf("pass %d, σ=%v, %+v: memo chose %+v (%v), Choose %+v (%v)", pass, in.RobustSigma, req, got, gotErr, want, wantErr)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := len(optimizer.MemoSetKeys(m)); n != 3 {
		t.Errorf("memo holds %d input sets, want 3", n)
	}
}

// TestMemoBoundAndEligibility: the memo never holds more than its cap of
// input sets and evicts the least recently used one; it never stores an
// input set with a nonzero cache hit rate or rectangle ratios, and searches
// those exactly as Choose does.
// TestMemoBestMatchesChoose: Memo.Best, which formats no infeasibility
// reason, returns Choose's best plan and error, from a memoized input set
// and from the sets the memo does not hold (a cache hit rate, rectangle
// ratios) alike.
func TestMemoBestMatchesChoose(t *testing.T) {
	w, truth := testSetup(t)
	env, err := w.NewEnv(thetas)
	if err != nil {
		t.Fatal(err)
	}
	pilot, _, err := optimizer.PilotEstimate(env, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	robust, cached, rect := *truth, *truth, *truth
	robust.RobustSigma = 2
	cached.CacheHitRate = [2]float64{0.5, 0.5}
	rect.RectangleRatios = []float64{0.5, 2}
	plans := optimizer.Enumerate(thetas)
	m := &optimizer.Memo{}
	var feasible, infeasible int
	for pass := 0; pass < 2; pass++ {
		for _, in := range []*optimizer.Inputs{truth, &robust, pilot, &cached, &rect} {
			for _, req := range experiments.Table2Reqs {
				want, _, wantErr := optimizer.Choose(plans, in, req)
				got, gotErr := m.Best(plans, in, req)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("pass %d, %+v: Best chose %+v (%v), Choose %+v (%v)", pass, req, got, gotErr, want, wantErr)
				}
				if wantErr == nil {
					feasible++
				} else {
					infeasible++
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Errorf("%d feasible and %d infeasible searches; the test needs both", feasible, infeasible)
	}
}

func TestMemoBoundAndEligibility(t *testing.T) {
	_, truth := testSetup(t)
	plans := optimizer.Enumerate(thetas)
	req := optimizer.Requirement{TauG: 16, TauB: 160}
	variant := func(i int) *optimizer.Inputs {
		in := *truth
		in.Costs[0].TR = float64(i + 1)
		return &in
	}
	m := &optimizer.Memo{}
	choose := func(in *optimizer.Inputs) {
		t.Helper()
		want, _, wantErr := optimizer.Choose(plans, in, req)
		got, _, err := m.Choose(plans, in, req)
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("memo chose %+v (%v), Choose %+v (%v)", got, err, want, wantErr)
		}
	}
	held := func(in *optimizer.Inputs) bool {
		for _, k := range optimizer.MemoSetKeys(m) {
			if bytes.Equal(k, optimizer.MemoKey(in)) {
				return true
			}
		}
		return false
	}
	for i := 0; i < optimizer.MemoCap; i++ {
		choose(variant(i))
	}
	choose(variant(0)) // a hit makes set 0 the most recently used
	for i := optimizer.MemoCap; i < optimizer.MemoCap+3; i++ {
		choose(variant(i))
		if n := len(optimizer.MemoSetKeys(m)); n > optimizer.MemoCap {
			t.Fatalf("memo holds %d input sets, cap %d", n, optimizer.MemoCap)
		}
	}
	if !held(variant(0)) || held(variant(1)) || !held(variant(optimizer.MemoCap+2)) {
		t.Error("eviction did not drop the least recently used input sets")
	}

	keys := len(optimizer.MemoSetKeys(m))
	cached := *truth
	cached.CacheHitRate = [2]float64{0.25, 0.25}
	rect := *truth
	rect.RectangleRatios = []float64{0.5, 2}
	for _, in := range []*optimizer.Inputs{&cached, &rect} {
		choose(in)
		if optimizer.MemoKey(in) != nil || len(optimizer.MemoSetKeys(m)) != keys {
			t.Errorf("the memo stored an input set with cache hit rate %v, rectangle ratios %v", in.CacheHitRate, in.RectangleRatios)
		}
	}
}

// TestMemoFnKeepsBoundedValues: a memoized function keeps at most
// MemoValues values, never keeps an error, and answers every effort as the
// function does, kept or not.
func TestMemoFnKeepsBoundedValues(t *testing.T) {
	calls := 0
	f := func(e int) (int, error) {
		calls++
		if e%7 == 0 {
			return 0, fmt.Errorf("effort %d", e)
		}
		return 3 * e, nil
	}
	seen := map[int]int{}
	g := optimizer.MemoFn(f, seen)
	for pass := 0; pass < 2; pass++ {
		for e := 1; e <= 2*optimizer.MemoValues; e++ {
			v, err := g(e)
			if (e%7 == 0) != (err != nil) || (err == nil && v != 3*e) {
				t.Fatalf("pass %d: effort %d gave %d, %v", pass, e, v, err)
			}
		}
	}
	if len(seen) != optimizer.MemoValues {
		t.Errorf("kept %d values, want the bound %d", len(seen), optimizer.MemoValues)
	}
	for e := range seen {
		if e%7 == 0 {
			t.Errorf("kept the error of effort %d", e)
		}
	}
	if want := 4*optimizer.MemoValues - len(seen); calls != want {
		t.Errorf("%d calls, want %d: every value not kept is computed again, and no kept one", calls, want)
	}
}

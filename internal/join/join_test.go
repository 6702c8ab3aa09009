package join_test

import (
	"sync"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	wlOnce sync.Once
	wl     *workload.Workload
	wlErr  error
)

// testWorkload builds one small HQ⋈EX workload shared by all tests in the
// package.
func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	wlOnce.Do(func() {
		wl, wlErr = workload.HQJoinEX(workload.Params{NumDocs: 800, Seed: 5})
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

// resultCounts returns the numbers of good and bad distinct join tuples.
func resultCounts(st *join.State) (good, bad int) {
	for _, lt := range st.JoinTuples() {
		if lt.Good {
			good++
		} else {
			bad++
		}
	}
	return good, bad
}

func idjnSC(t *testing.T, w *workload.Workload, theta float64) *join.IDJN {
	t.Helper()
	x1, err := w.NewStrategy(0, retrieval.SC)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := w.NewStrategy(1, retrieval.SC)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewIDJN(w.Side(0, theta), w.Side(1, theta), x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestIDJNScanExhaustsBothDatabases(t *testing.T) {
	w := testWorkload(t)
	e := idjnSC(t, w, 0.4)
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsProcessed[0] != w.DB[0].Size() || st.DocsProcessed[1] != w.DB[1].Size() {
		t.Errorf("processed %v, want full databases", st.DocsProcessed)
	}
	if st.DocsRetrieved[0] != w.DB[0].Size() {
		t.Errorf("retrieved %d", st.DocsRetrieved[0])
	}
	if st.GoodPairs == 0 {
		t.Error("no good join pairs produced")
	}
	if st.BadPairs == 0 {
		t.Error("expected some bad join pairs at theta 0.4")
	}
	if st.Time <= 0 {
		t.Error("no time charged")
	}
}

func TestIDJNPairCountsMatchDirectComposition(t *testing.T) {
	w := testWorkload(t)
	e := idjnSC(t, w, 0.4)
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct recomputation of Σ_a gr1(a)·gr2(a) from the relations.
	good, total := 0, 0
	vals := map[string]bool{}
	for i := 0; i < 2; i++ {
		for v := range st.ValueCounts(i) {
			vals[v] = true
		}
	}
	values := w.Tables[0].Dict().Values()
	for v := range vals {
		g1, b1 := st.R1.Occ(values.ID(v))
		g2, b2 := st.R2.Occ(values.ID(v))
		good += g1 * g2
		total += (g1 + b1) * (g2 + b2)
	}
	if st.GoodPairs != good {
		t.Errorf("incremental GoodPairs %d != direct %d", st.GoodPairs, good)
	}
	if st.BadPairs != total-good {
		t.Errorf("incremental BadPairs %d != direct %d", st.BadPairs, total-good)
	}
	// With one tuple per document occurrence, the distinct labelled join
	// tuples coincide with the pair composition.
	rg, rb := resultCounts(st)
	if rg != st.GoodPairs || rb != st.BadPairs {
		t.Errorf("result counts (%d, %d) != pair counts (%d, %d)", rg, rb, st.GoodPairs, st.BadPairs)
	}
}

func TestIDJNStopFunc(t *testing.T) {
	w := testWorkload(t)
	e := idjnSC(t, w, 0.4)
	st, err := join.Run(e, func(s *join.State) bool { return s.DocsProcessed[0] >= 100 })
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsProcessed[0] < 100 || st.DocsProcessed[0] > 101 {
		t.Errorf("stop respected late: %d docs", st.DocsProcessed[0])
	}
}

func TestIDJNHigherThetaCleanerOutput(t *testing.T) {
	w := testWorkload(t)
	low, err := join.Run(idjnSC(t, w, 0.4), nil)
	if err != nil {
		t.Fatal(err)
	}
	high, err := join.Run(idjnSC(t, w, 0.8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if high.GoodPairs >= low.GoodPairs {
		t.Errorf("theta 0.8 should extract fewer good pairs: %d vs %d", high.GoodPairs, low.GoodPairs)
	}
	lowPrec := float64(low.GoodPairs) / float64(low.GoodPairs+low.BadPairs)
	highPrec := float64(high.GoodPairs) / float64(high.GoodPairs+high.BadPairs)
	if highPrec <= lowPrec {
		t.Errorf("theta 0.8 should be more precise: %.3f vs %.3f", highPrec, lowPrec)
	}
}

func TestIDJNWithFilteredScan(t *testing.T) {
	w := testWorkload(t)
	x1, err := w.NewStrategy(0, retrieval.FS)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := w.NewStrategy(1, retrieval.FS)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsProcessed[0] >= w.DB[0].Size() {
		t.Error("FS should process fewer documents than the full database")
	}
	if st.DocsFiltered[0] == 0 {
		t.Error("FS should filter some documents")
	}
	if st.DocsRetrieved[0] != w.DB[0].Size() {
		t.Errorf("FS still retrieves everything: %d", st.DocsRetrieved[0])
	}
}

func TestIDJNWithAQG(t *testing.T) {
	w := testWorkload(t)
	x1, err := w.NewStrategy(0, retrieval.AQG)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := w.NewStrategy(1, retrieval.AQG)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries[0] == 0 || st.Queries[1] == 0 {
		t.Errorf("AQG issued no queries: %v", st.Queries)
	}
	if st.DocsProcessed[0] == 0 || st.DocsProcessed[0] >= w.DB[0].Size() {
		t.Errorf("AQG processed %d docs, want a strict subset", st.DocsProcessed[0])
	}
	if st.GoodPairs == 0 {
		t.Error("AQG execution produced no good pairs")
	}
}

func TestOIJNQueriesInnerPerOuterValue(t *testing.T) {
	w := testWorkload(t)
	x, err := w.NewStrategy(0, retrieval.SC)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries[1] == 0 {
		t.Fatal("no inner queries issued")
	}
	if st.Queries[1] != len(st.ValueCounts(0)) {
		t.Errorf("queries %d != distinct outer values %d", st.Queries[1], len(st.ValueCounts(0)))
	}
	if st.DocsRetrieved[1] > st.Queries[1]*w.Ix[1].TopK() {
		t.Errorf("inner retrieved %d exceeds queries × top-k", st.DocsRetrieved[1])
	}
	if st.GoodPairs == 0 {
		t.Error("OIJN produced no good pairs")
	}
}

func TestOIJNOuterSideSelection(t *testing.T) {
	w := testWorkload(t)
	x, err := w.NewStrategy(1, retrieval.SC)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 1, x)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, func(s *join.State) bool { return s.DocsProcessed[1] >= 150 })
	if err != nil {
		t.Fatal(err)
	}
	if st.DocsProcessed[1] < 150 {
		t.Errorf("outer side 1 processed %d", st.DocsProcessed[1])
	}
	if st.Queries[0] == 0 {
		t.Error("inner side 0 received no queries")
	}
}

func TestOIJNValidation(t *testing.T) {
	w := testWorkload(t)
	x, _ := w.NewStrategy(0, retrieval.SC)
	if _, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 2, x); err == nil {
		t.Error("expected error for bad outer index")
	}
	if _, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, nil); err == nil {
		t.Error("expected error for nil strategy")
	}
	s2 := w.Side(1, 0.4)
	s2.Index = nil
	if _, err := join.NewOIJN(w.Side(0, 0.4), s2, 0, x); err == nil {
		t.Error("expected error for inner side without index")
	}
}

func TestZGJNReachesBothRelations(t *testing.T) {
	w := testWorkload(t)
	e, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), w.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries[0] == 0 || st.Queries[1] == 0 {
		t.Errorf("zig-zag queried %v, want both sides", st.Queries)
	}
	if st.DocsProcessed[0] == 0 || st.DocsProcessed[1] == 0 {
		t.Errorf("zig-zag processed %v, want both sides", st.DocsProcessed)
	}
	// ZGJN reach is bounded; it must not scan the whole database.
	if st.DocsProcessed[0] >= w.DB[0].Size() {
		t.Error("zig-zag should not reach every document")
	}
}

func TestZGJNValidation(t *testing.T) {
	w := testWorkload(t)
	if _, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), nil); err == nil {
		t.Error("expected error for empty seed")
	}
	s1 := w.Side(0, 0.4)
	s1.Index = nil
	if _, err := join.NewZGJN(s1, w.Side(1, 0.4), w.Seeds); err == nil {
		t.Error("expected error for missing index")
	}
}

func TestZGJNStepAlternatesSides(t *testing.T) {
	w := testWorkload(t)
	e, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), w.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	// After the first few steps both sides should have been queried unless
	// the seed stalls immediately.
	for i := 0; i < 6; i++ {
		if ok, err := e.Step(); err != nil || !ok {
			break
		}
	}
	st := e.State()
	if st.Queries[0] == 0 {
		t.Error("side 1 never queried")
	}
	if st.Queries[1] == 0 {
		t.Error("side 2 never queried after early steps")
	}
}

func TestExecutorAlgorithms(t *testing.T) {
	w := testWorkload(t)
	x1, _ := w.NewStrategy(0, retrieval.SC)
	x2, _ := w.NewStrategy(1, retrieval.SC)
	id, _ := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
	x3, _ := w.NewStrategy(0, retrieval.SC)
	oi, _ := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x3)
	zg, _ := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), w.Seeds)
	if id.Algorithm() != "IDJN" || oi.Algorithm() != "OIJN" || zg.Algorithm() != "ZGJN" {
		t.Error("algorithm names wrong")
	}
}

func TestOIJNWithAQGOuter(t *testing.T) {
	w := testWorkload(t)
	x, err := w.NewStrategy(0, retrieval.AQG)
	if err != nil {
		t.Fatal(err)
	}
	e, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x)
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Outer side issues AQG queries; inner side issues value queries.
	if st.Queries[0] == 0 {
		t.Error("outer AQG issued no queries")
	}
	if st.Queries[1] == 0 {
		t.Error("inner side received no value queries")
	}
	if st.DocsProcessed[0] >= w.DB[0].Size() {
		t.Error("AQG outer should process a strict subset")
	}
}

func TestZGJNStallsOnDeadSeed(t *testing.T) {
	w := testWorkload(t)
	e, err := join.NewZGJN(w.Side(0, 0.4), w.Side(1, 0.4), []string{"No Such Company Anywhere"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One query issued (matching nothing), then the zig-zag stalls.
	if st.Queries[0] != 1 || st.DocsProcessed[0] != 0 || st.DocsProcessed[1] != 0 {
		t.Errorf("dead seed should stall immediately: %v queries, %v docs", st.Queries, st.DocsProcessed)
	}
	if ok, _ := e.Step(); ok {
		t.Error("stalled executor must stay stalled")
	}
}

func TestExhaustedExecutorsIdempotent(t *testing.T) {
	w := testWorkload(t)
	x1, _ := w.NewStrategy(0, retrieval.SC)
	e, err := join.NewOIJN(w.Side(0, 0.4), w.Side(1, 0.4), 0, x1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := join.Run(e, nil); err != nil {
		t.Fatal(err)
	}
	before := *e.State()
	for i := 0; i < 3; i++ {
		ok, err := e.Step()
		if err != nil || ok {
			t.Fatalf("exhausted OIJN stepped: ok=%v err=%v", ok, err)
		}
	}
	if e.State().DocsProcessed != before.DocsProcessed {
		t.Error("exhausted executor mutated state")
	}
}

func TestConcurrentExecutionsShareSystemSafely(t *testing.T) {
	// Two executions over the same (cached) IE systems must be race-free
	// and produce identical results.
	w := testWorkload(t)
	run := func() *join.State {
		x1, _ := w.NewStrategy(0, retrieval.SC)
		x2, _ := w.NewStrategy(1, retrieval.SC)
		e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
		if err != nil {
			t.Error(err)
			return nil
		}
		st, err := join.Run(e, func(s *join.State) bool { return s.DocsProcessed[0] >= 200 })
		if err != nil {
			t.Error(err)
			return nil
		}
		return st
	}
	results := make([]*join.State, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run()
		}(i)
	}
	wg.Wait()
	if results[0] == nil || results[1] == nil {
		t.Fatal("a run failed")
	}
	if results[0].GoodPairs != results[1].GoodPairs || results[0].BadPairs != results[1].BadPairs {
		t.Errorf("concurrent runs diverged: %d/%d vs %d/%d",
			results[0].GoodPairs, results[0].BadPairs, results[1].GoodPairs, results[1].BadPairs)
	}
}

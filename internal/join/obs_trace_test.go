package join_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace file")

// traceWorkload builds a fresh (non-shared) workload so the golden test can
// attach faults, retries, and a trace without disturbing other tests.
func traceWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.HQJoinEX(workload.Params{NumDocs: 400, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestGoldenTrace pins the NDJSON trace of a small seeded IDJN run with
// fault injection byte-for-byte: trace timestamps are cost-model times and
// attr keys are JSON-sorted, so the stream must be fully deterministic.
// Regenerate with `go test ./internal/join -run TestGoldenTrace -update`.
func TestGoldenTrace(t *testing.T) {
	run := func() []byte {
		w := traceWorkload(t)
		p, err := faults.Parse("rate=0.1,seed=7")
		if err != nil {
			t.Fatal(err)
		}
		w.Faults = p
		w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
		var buf bytes.Buffer
		sink := obs.NewNDJSON(&buf)
		w.Trace = obs.New(sink)
		exec, err := w.NewExecutor(optimizer.PlanSpec{
			JN:    optimizer.IDJN,
			Theta: [2]float64{0.4, 0.4},
			X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
		})
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		if _, err := join.Run(exec, func(*join.State) bool {
			steps++
			return steps >= 10
		}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	got := run()
	if again := run(); !bytes.Equal(got, again) {
		t.Fatal("trace is not deterministic across identical runs")
	}
	golden := filepath.Join("testdata", "golden_trace.ndjson")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs from golden: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestTraceCoversExecutionSpans checks the taxonomy end to end: a traced
// faulty run emits step, document, tuple, retry, and fault spans, and a full
// run closes with side-exhaustion markers.
func TestTraceCoversExecutionSpans(t *testing.T) {
	w := traceWorkload(t)
	p, err := faults.Parse("rate=0.1,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	w.Faults = p
	w.Retry = join.RetryPolicy{MaxRetries: 3, BaseDelay: 1, MaxDelay: 8}
	ring := obs.NewRing(1 << 16)
	w.Trace = obs.New(ring)
	exec, err := w.NewExecutor(optimizer.PlanSpec{
		JN:    optimizer.IDJN,
		Theta: [2]float64{0.4, 0.4},
		X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := join.Run(exec, nil); err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.Kind]int{}
	var lastT float64
	for _, ev := range ring.Events() {
		kinds[ev.Kind]++
		if ev.T < 0 {
			t.Fatalf("negative timestamp in %+v", ev)
		}
		if ev.T > lastT {
			lastT = ev.T
		}
	}
	for _, want := range []obs.Kind{
		obs.KindStep, obs.KindDocProcessed, obs.KindTupleExtracted,
		obs.KindTupleJoined, obs.KindRetry, obs.KindFault, obs.KindSideExhausted,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in a traced faulty full run (kinds: %v)", want, kinds)
		}
	}
	if kinds[obs.KindSideExhausted] != 2 {
		t.Errorf("IDJN full run must exhaust both sides, got %d markers", kinds[obs.KindSideExhausted])
	}
	if st := exec.State(); lastT > st.Time {
		t.Errorf("event timestamp %v beyond final model time %v", lastT, st.Time)
	}
}

// TestNilTracerBitIdentical is the observability counterpart of
// TestZeroRateFaultTransparency: attaching a trace and metrics must not
// change execution at all, and running with them detached must leave the
// state bit-identical to a never-instrumented run.
func TestNilTracerBitIdentical(t *testing.T) {
	cases := []struct {
		algo optimizer.Algorithm
		kind retrieval.Kind
	}{
		{optimizer.IDJN, retrieval.SC},
		{optimizer.IDJN, retrieval.FS},
		{optimizer.IDJN, retrieval.AQG},
		{optimizer.OIJN, retrieval.SC},
		{optimizer.ZGJN, retrieval.SC},
	}
	w := testWorkload(t)
	for _, tc := range cases {
		spec := optimizer.PlanSpec{
			JN:    tc.algo,
			Theta: [2]float64{0.4, 0.4},
			X:     [2]retrieval.Kind{tc.kind, tc.kind},
		}
		mk := func() join.Executor {
			t.Helper()
			e, err := w.NewExecutor(spec)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		clean, err := join.Run(mk(), nil)
		if err != nil {
			t.Fatalf("%v/%s clean: %v", tc.algo, tc.kind, err)
		}
		// Traced run: ring sink + registry attached.
		w.Trace = obs.New(obs.NewRing(1024))
		w.Metrics = obs.NewRegistry()
		traced, err := join.Run(mk(), nil)
		w.Trace, w.Metrics = nil, nil
		if err != nil {
			t.Fatalf("%v/%s traced: %v", tc.algo, tc.kind, err)
		}
		if cs, ts := clean.Snapshot(), traced.Snapshot(); cs != ts {
			t.Errorf("%v/%s: traced state diverged:\nclean  %+v\ntraced %+v", tc.algo, tc.kind, cs, ts)
		}
		cg, cb := resultCounts(clean)
		tg, tb := resultCounts(traced)
		if cg != tg || cb != tb {
			t.Errorf("%v/%s: traced result (%d,%d) != clean (%d,%d)", tc.algo, tc.kind, tg, tb, cg, cb)
		}
	}
}

// TestMetricsMirrorState checks the live-counter invariant on a fixed plan:
// after a run, the registry's per-side counters equal the executor state's
// own counters exactly.
func TestMetricsMirrorState(t *testing.T) {
	w := traceWorkload(t)
	reg := obs.NewRegistry()
	w.Metrics = reg
	exec, err := w.NewExecutor(optimizer.PlanSpec{
		JN:    optimizer.IDJN,
		Theta: [2]float64{0.4, 0.4},
		X:     [2]retrieval.Kind{retrieval.SC, retrieval.SC},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := join.Run(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for side := 0; side < 2; side++ {
		label := string('1' + byte(side))
		if got := s.Counters[obs.MetricDocsProcessed+`{side="`+label+`"}`]; got != int64(st.DocsProcessed[side]) {
			t.Errorf("side %s processed counter %d != state %d", label, got, st.DocsProcessed[side])
		}
		if got := s.Counters[obs.MetricDocsRetrieved+`{side="`+label+`"}`]; got != int64(st.DocsRetrieved[side]) {
			t.Errorf("side %s retrieved counter %d != state %d", label, got, st.DocsRetrieved[side])
		}
		if got := s.Counters[obs.MetricQueries+`{side="`+label+`"}`]; got != int64(st.Queries[side]) {
			t.Errorf("side %s queries counter %d != state %d", label, got, st.Queries[side])
		}
	}
	if got := s.Gauges[obs.MetricTuplesGood]; got != float64(st.GoodPairs) {
		t.Errorf("good gauge %v != state %d", got, st.GoodPairs)
	}
	if got := s.Gauges[obs.MetricTuplesBad]; got != float64(st.BadPairs) {
		t.Errorf("bad gauge %v != state %d", got, st.BadPairs)
	}
	if got := s.Gauges[obs.MetricModelTime]; got != st.Time {
		t.Errorf("model-time gauge %v != state %v", got, st.Time)
	}
}

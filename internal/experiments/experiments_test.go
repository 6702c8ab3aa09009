package experiments

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

var (
	once  sync.Once
	wl    *workload.Workload
	wlErr error
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	once.Do(func() {
		wl, wlErr = workload.HQJoinEX(workload.Params{NumDocs: 1200, Seed: 7})
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func TestTrajectoryMonotone(t *testing.T) {
	w := testWorkload(t)
	exec, err := newExec(w, optimizer.PlanSpec{
		JN: optimizer.IDJN, Theta: [2]float64{0.4, 0.4},
		X: [2]retrieval.Kind{retrieval.SC, retrieval.SC},
	})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := Trajectory(exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) == 0 {
		t.Fatal("empty trajectory")
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Good < traj[i-1].Good || traj[i].Bad < traj[i-1].Bad || traj[i].Time < traj[i-1].Time {
			t.Fatalf("trajectory not monotone at step %d", i)
		}
	}
	final := traj[len(traj)-1]
	if final.Processed[0] != w.DB[0].Size() {
		t.Errorf("final trajectory processed %d docs", final.Processed[0])
	}
}

func checkFigure(t *testing.T, f interface {
	String() string
}, wantSeries int) {
	t.Helper()
	s := f.String()
	if !strings.Contains(s, "estimated") || !strings.Contains(s, "actual") {
		t.Errorf("figure rendering incomplete:\n%s", s)
	}
}

func TestFig9ShapeAndAccuracy(t *testing.T) {
	w := testWorkload(t)
	f, err := Fig9(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("Fig9 series %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(Percents) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		// Curves grow with effort.
		last := s.Points[len(s.Points)-1]
		if last.Act <= s.Points[0].Act {
			t.Errorf("series %q actual does not grow", s.Label)
		}
	}
	// The good-tuple estimates track the actuals closely at the tail
	// (early points are sampling-noisy).
	good := f.Series[0]
	tail := good.Points[len(good.Points)-1]
	if r := tail.Est / tail.Act; r < 0.5 || r > 2.0 {
		t.Errorf("Fig9 good tail ratio %.2f", r)
	}
	checkFigure(t, f, 2)
}

func TestFig10Shape(t *testing.T) {
	w := testWorkload(t)
	f, err := Fig10(w)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := f.Series[0], f.Series[1]
	tailG := good.Points[len(good.Points)-1]
	if r := tailG.Est / tailG.Act; r < 0.5 || r > 2.0 {
		t.Errorf("Fig10 good tail ratio %.2f", r)
	}
	// Bad-tuple overestimation at the tail (training-characterized rates
	// are blind to target outliers).
	tailB := bad.Points[len(bad.Points)-1]
	if tailB.Est <= tailB.Act {
		t.Errorf("Fig10 bad tail should overestimate: est %.0f vs act %.0f", tailB.Est, tailB.Act)
	}
}

func TestFig11Shape(t *testing.T) {
	w := testWorkload(t)
	f, err := Fig11(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.Points) != len(Percents) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if math.IsNaN(p.Est) || p.Est < 0 {
				t.Fatalf("series %q has invalid estimate %v", s.Label, p.Est)
			}
		}
		tail := s.Points[len(s.Points)-1]
		if tail.Act == 0 {
			t.Fatalf("series %q ends with zero actual", s.Label)
		}
		if r := tail.Est / tail.Act; r < 0.3 || r > 3.0 {
			t.Errorf("series %q tail ratio %.2f", s.Label, r)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	w := testWorkload(t)
	f, err := Fig12(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("Fig12 series %d", len(f.Series))
	}
	for _, s := range f.Series {
		tail := s.Points[len(s.Points)-1]
		if r := tail.Est / tail.Act; r < 0.5 || r > 2.0 {
			t.Errorf("series %q tail ratio %.2f", s.Label, r)
		}
		// Documents retrieved grow with queries.
		if tail.Act <= s.Points[0].Act {
			t.Errorf("series %q actual does not grow", s.Label)
		}
	}
}

func TestTable2Structure(t *testing.T) {
	w := testWorkload(t)
	rows, err := Table2(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table2Reqs) {
		t.Fatalf("rows %d, want %d", len(rows), len(Table2Reqs))
	}
	prevCand := 1 << 30
	zgjnChosen := false
	for i, r := range rows {
		// Candidate counts shrink (weakly) as requirements grow in τg for
		// equal τb patterns; globally they must not exceed the plan space.
		if r.Candidates > 64 {
			t.Errorf("row %d candidates %d", i, r.Candidates)
		}
		if r.Req.TauG > rows[0].Req.TauG && r.Candidates > prevCand+20 {
			t.Errorf("candidate counts inconsistent at row %d", i)
		}
		prevCand = r.Candidates
		if !r.NoFeasiblePrediction && r.Chosen.JN == optimizer.ZGJN {
			zgjnChosen = true
		}
		if r.ChosenMet && r.ChosenTime <= 0 {
			t.Errorf("row %d met with non-positive time", i)
		}
	}
	if zgjnChosen {
		t.Error("ZGJN chosen — the workload should make it uncompetitive, as in the paper")
	}
	// Early rows must have predictions and meet them.
	if rows[0].NoFeasiblePrediction || !rows[0].ChosenMet {
		t.Errorf("first row should be satisfiable: %+v", rows[0])
	}
	// Rendering sanity.
	text := RenderTable2(rows).String()
	if !strings.Contains(text, "chosen plan") || !strings.Contains(text, "τg") {
		t.Error("table rendering incomplete")
	}
	if len(ChosenAlgorithms(rows)) != len(rows) {
		t.Error("ChosenAlgorithms length mismatch")
	}
}

func TestTable2ChosenNearFastest(t *testing.T) {
	w := testWorkload(t)
	rows, err := Table2(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.NoFeasiblePrediction || !r.ChosenMet {
			continue
		}
		if r.Faster > 0 && r.FasterMin < 0.05 {
			t.Errorf("τg=%d τb=%d: a plan is %.2fx the chosen time — choice far from optimal",
				r.Req.TauG, r.Req.TauB, r.FasterMin)
		}
	}
}

func TestAtHelper(t *testing.T) {
	traj := []TrajPoint{
		{Good: 1, Processed: [2]int{10, 0}},
		{Good: 5, Processed: [2]int{20, 0}},
		{Good: 9, Processed: [2]int{30, 0}},
	}
	p := at(traj, 20, func(tp TrajPoint) int { return tp.Processed[0] })
	if p.Good != 5 {
		t.Errorf("at returned %+v", p)
	}
	// Beyond the trajectory returns the final point.
	p = at(traj, 100, func(tp TrajPoint) int { return tp.Processed[0] })
	if p.Good != 9 {
		t.Errorf("at overflow returned %+v", p)
	}
	if at(nil, 5, func(TrajPoint) int { return 0 }).Good != 0 {
		t.Error("empty trajectory should return zero point")
	}
}

func TestEstimationExperiment(t *testing.T) {
	w := testWorkload(t)
	table, err := Estimation(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows %d, want one per window", len(table.Rows))
	}
	text := table.String()
	if !strings.Contains(text, "window %") || !strings.Contains(text, "cv divergence") {
		t.Errorf("rendering incomplete:\n%s", text)
	}
	// At moderate windows (20% and 40%) the HQ side's value-population
	// estimate |Ag|+|Ab| is within 100% of the truth.
	for _, row := range table.Rows {
		if row[0] != "20" && row[0] != "40" {
			continue
		}
		est, err1 := strconv.Atoi(strings.Fields(row[1])[0])
		truth, err2 := strconv.Atoi(strings.Fields(row[2])[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("window %s%%: unparsable row %q", row[0], row)
		}
		if rel := math.Abs(float64(est-truth)) / float64(truth); rel > 1.0 {
			t.Errorf("population estimate off by %.0f%% at a %s%% window", rel*100, row[0])
		}
	}
}

func TestFigureDeterminism(t *testing.T) {
	w := testWorkload(t)
	a, err := Fig9(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Fig9 not deterministic on a fixed workload")
	}
}

func TestFigThetaVariants(t *testing.T) {
	w := testWorkload(t)
	f, err := Fig9Theta(w, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f.Title, "0.8") {
		t.Errorf("title %q should carry the knob setting", f.Title)
	}
	// Strict extraction: fewer tuples than the permissive default at full
	// effort.
	loose, err := Fig9Theta(w, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	strictTail := f.Series[0].Points[len(f.Series[0].Points)-1]
	looseTail := loose.Series[0].Points[len(loose.Series[0].Points)-1]
	if strictTail.Act >= looseTail.Act {
		t.Errorf("θ=0.8 actual %v should be below θ=0.4 actual %v", strictTail.Act, looseTail.Act)
	}
}

func TestFaultSweep(t *testing.T) {
	w := testWorkload(t)
	table, err := FaultSweep(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Faults != nil {
		t.Error("FaultSweep must restore the workload's fault configuration")
	}
	if len(table.Rows) != 5 {
		t.Fatalf("sweep rows %d, want 5", len(table.Rows))
	}
	// Rate 0: nothing lost, nothing retried, recall 1.
	zero := table.Rows[0]
	if zero[4] != "0" || zero[5] != "0" || zero[3] != "1.00" {
		t.Errorf("zero-rate row %v must show a clean run", zero)
	}
	// Some rate engages retries, and the burst profile loses documents at
	// the high end.
	retried, lost := false, false
	for _, row := range table.Rows[1:] {
		if row[5] != "0" {
			retried = true
		}
		if row[4] != "0" {
			lost = true
		}
	}
	if !retried || !lost {
		t.Errorf("sweep shows no degradation (retried=%v lost=%v):\n%s", retried, lost, table)
	}
}

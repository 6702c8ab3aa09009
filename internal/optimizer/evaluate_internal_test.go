package optimizer

import (
	"testing"

	"joinopt/internal/model"
)

// TestSearchMinEffortQualityMatchesEffort is the regression test for the
// search-boundary bug: the returned quality must be the one measured at the
// returned effort, even when the quality function is not perfectly monotone
// (robust bounds and model quirks can dip locally). The old code could pair
// effort lo with the quality measured at a larger effort.
func TestSearchMinEffortQualityMatchesEffort(t *testing.T) {
	// A non-monotone step profile with a dip: efforts 1..3 yield 0, 4..6
	// yield 10, 7 dips to 3, 8..10 yield 10+effort.
	q := func(e int) (model.Quality, error) {
		switch {
		case e <= 3:
			return model.Quality{Good: 0}, nil
		case e <= 6:
			return model.Quality{Good: 10, Bad: float64(e)}, nil
		case e == 7:
			return model.Quality{Good: 3, Bad: 7}, nil
		default:
			return model.Quality{Good: 10 + float64(e), Bad: float64(e)}, nil
		}
	}
	for tauG := 1; tauG <= 12; tauG++ {
		e, got, feasible, err := searchMinEffort(10, tauG, q)
		if err != nil {
			t.Fatal(err)
		}
		at, _ := q(e)
		if got != at {
			t.Errorf("τg=%d: returned quality %+v but quality(%d) = %+v — effort and quality disagree",
				tauG, got, e, at)
		}
		if feasible && got.Good < float64(tauG) {
			t.Errorf("τg=%d: feasible result below the threshold: %+v at effort %d", tauG, got, e)
		}
	}
}

// TestSearchMinEffortMonotone checks the standard monotone cases: minimal
// effort, boundary hits, and infeasibility at max.
func TestSearchMinEffortMonotone(t *testing.T) {
	linear := func(e int) (model.Quality, error) {
		return model.Quality{Good: float64(e)}, nil
	}
	e, q, feasible, err := searchMinEffort(100, 37, linear)
	if err != nil || !feasible {
		t.Fatalf("feasible=%v err=%v", feasible, err)
	}
	if e != 37 || q.Good != 37 {
		t.Errorf("minimal effort (%d, %+v), want (37, good=37)", e, q)
	}
	// τg reached only at max.
	e, q, feasible, err = searchMinEffort(100, 100, linear)
	if err != nil || !feasible || e != 100 || q.Good != 100 {
		t.Errorf("boundary case (%d, %+v, %v, %v)", e, q, feasible, err)
	}
	// Infeasible beyond max.
	e, q, feasible, err = searchMinEffort(100, 101, linear)
	if err != nil || feasible {
		t.Errorf("infeasible case claims feasibility (%d, %+v)", e, q)
	}
	if e != 100 || q.Good != 100 {
		t.Errorf("infeasible case should report the max-effort quality, got (%d, %+v)", e, q)
	}
	// max = 1 degenerate.
	if e, _, feasible, _ := searchMinEffort(1, 1, linear); !feasible || e != 1 {
		t.Errorf("max=1 case (%d, %v)", e, feasible)
	}
}

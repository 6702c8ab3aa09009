package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"joinopt/internal/eval"
	"joinopt/internal/optimizer"
	"joinopt/internal/workload"
)

// ChooseWorkers bounds the optimizer's plan-evaluation worker pool in the
// experiment drivers (0 = one worker per CPU, 1 = sequential); see
// optimizer.Inputs.Workers. cmd/experiments exposes it as -workers.
var ChooseWorkers int

// Table2Reqs are the 24 (τg, τb) combinations of the paper's Table II.
var Table2Reqs = []optimizer.Requirement{
	{TauG: 1, TauB: 20},
	{TauG: 2, TauB: 30}, {TauG: 2, TauB: 50},
	{TauG: 4, TauB: 20}, {TauG: 4, TauB: 40},
	{TauG: 8, TauB: 40}, {TauG: 8, TauB: 80},
	{TauG: 16, TauB: 50}, {TauG: 16, TauB: 80}, {TauG: 16, TauB: 160},
	{TauG: 32, TauB: 84}, {TauG: 32, TauB: 160}, {TauG: 32, TauB: 320},
	{TauG: 64, TauB: 320}, {TauG: 64, TauB: 640},
	{TauG: 128, TauB: 640}, {TauG: 128, TauB: 1280},
	{TauG: 256, TauB: 1280}, {TauG: 256, TauB: 2560},
	{TauG: 512, TauB: 1024}, {TauG: 512, TauB: 2560}, {TauG: 512, TauB: 5120},
	{TauG: 1024, TauB: 5120}, {TauG: 1024, TauB: 10240},
}

// Table2Row is one requirement's outcome: how many candidate plans actually
// meet it, the optimizer's choice, and how the choice's execution time
// compares against the meeting alternatives (relative time tc/to).
type Table2Row struct {
	Req        optimizer.Requirement
	Candidates int
	Chosen     optimizer.PlanSpec
	ChosenMet  bool
	ChosenTime float64

	Faster, Slower       int
	FasterMin, FasterMax float64
	SlowerMin, SlowerMax float64
	NoFeasiblePrediction bool
}

// planOutcome is a plan's actual trajectory summarized for requirement
// queries.
type planOutcome struct {
	plan optimizer.PlanSpec
	traj []TrajPoint
}

// timeToMeet returns the actual execution time at which the trajectory
// first reaches τg good tuples, and whether the requirement is met there
// (enough good tuples and no more than τb bad ones — bad output only grows,
// so the first reaching point is the binding one).
func (o *planOutcome) timeToMeet(req optimizer.Requirement) (float64, bool) {
	for _, p := range o.traj {
		if p.Good >= req.TauG {
			return p.Time, p.Bad <= req.TauB
		}
	}
	return 0, false
}

// Table2 reproduces Table II: every plan in the space is executed once to
// exhaustion (trajectories are reused across requirements); the adaptive
// optimizer's estimation pilot provides the inputs for the plan choices.
func Table2(w *workload.Workload) ([]Table2Row, error) {
	thetas := []float64{0.4, 0.8}
	plans := optimizer.Enumerate(thetas)

	// Plans execute independently (shared state — corpora, indexes,
	// classifiers, and the guarded candidate cache — is read-safe), so the
	// sweep parallelizes across cores.
	outcomes := make([]planOutcome, len(plans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	errs := make([]error, len(plans))
	for i, plan := range plans {
		wg.Add(1)
		go func(i int, plan optimizer.PlanSpec) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			exec, err := newExec(w, plan)
			if err != nil {
				errs[i] = err
				return
			}
			traj, err := Trajectory(exec)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: running %s: %w", plan, err)
				return
			}
			outcomes[i] = planOutcome{plan: plan, traj: traj}
		}(i, plan)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	env, err := w.NewEnv(thetas)
	if err != nil {
		return nil, err
	}
	in, _, err := optimizer.PilotEstimate(env, optimizer.Options{})
	if err != nil {
		return nil, err
	}
	// One pilot's estimates serve every requirement below, as one adaptive
	// run's pilot decision would see them.
	in.Workers = ChooseWorkers

	rows := make([]Table2Row, 0, len(Table2Reqs))
	for _, req := range Table2Reqs {
		row := Table2Row{Req: req}
		type met struct {
			plan optimizer.PlanSpec
			time float64
		}
		var meeting []met
		for i := range outcomes {
			if tm, ok := outcomes[i].timeToMeet(req); ok {
				meeting = append(meeting, met{plan: outcomes[i].plan, time: tm})
			}
		}
		row.Candidates = len(meeting)

		best, _, err := optimizer.Choose(plans, in, req)
		if err != nil {
			row.NoFeasiblePrediction = true
			rows = append(rows, row)
			continue
		}
		row.Chosen = best.Plan
		for i := range outcomes {
			if outcomes[i].plan == best.Plan {
				row.ChosenTime, row.ChosenMet = outcomes[i].timeToMeet(req)
			}
		}
		if !row.ChosenMet {
			rows = append(rows, row)
			continue
		}
		row.FasterMin, row.SlowerMin = math.Inf(1), math.Inf(1)
		for _, m := range meeting {
			if m.plan == best.Plan {
				continue
			}
			rel := m.time / row.ChosenTime
			if m.time < row.ChosenTime {
				row.Faster++
				row.FasterMin = math.Min(row.FasterMin, rel)
				row.FasterMax = math.Max(row.FasterMax, rel)
			} else {
				row.Slower++
				row.SlowerMin = math.Min(row.SlowerMin, rel)
				row.SlowerMax = math.Max(row.SlowerMax, rel)
			}
		}
		if row.Faster == 0 {
			row.FasterMin, row.FasterMax = 0, 0
		}
		if row.Slower == 0 {
			row.SlowerMin, row.SlowerMax = 0, 0
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 formats rows in the layout of the paper's Table II.
func RenderTable2(rows []Table2Row) eval.Table {
	t := eval.Table{
		Title: "Table II: optimizer plan choice vs actual alternatives",
		Header: []string{
			"τg", "τb", "cand", "chosen plan", "met", "#faster", "#slower",
			"faster rel", "slower rel",
		},
	}
	rng := func(lo, hi float64) string {
		if lo == 0 && hi == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f..%.2f", lo, hi)
	}
	for _, r := range rows {
		if r.NoFeasiblePrediction {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(r.Req.TauG), fmt.Sprint(r.Req.TauB), fmt.Sprint(r.Candidates),
				"(none predicted feasible)", "-", "-", "-", "-", "-",
			})
			continue
		}
		met := "yes"
		if !r.ChosenMet {
			met = "no"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Req.TauG), fmt.Sprint(r.Req.TauB), fmt.Sprint(r.Candidates),
			r.Chosen.String(), met,
			fmt.Sprint(r.Faster), fmt.Sprint(r.Slower),
			rng(r.FasterMin, r.FasterMax), rng(r.SlowerMin, r.SlowerMax),
		})
	}
	return t
}

// ChosenAlgorithms summarizes which algorithms the optimizer picked across
// rows, in requirement order — the paper's "OIJN at small requirements,
// IDJN+AQG/FS at moderate ones, IDJN+SC at the largest, ZGJN never" story.
func ChosenAlgorithms(rows []Table2Row) []string {
	var out []string
	for _, r := range rows {
		if r.NoFeasiblePrediction {
			out = append(out, "-")
			continue
		}
		out = append(out, string(r.Chosen.JN))
	}
	return out
}

// SortRowsByRequirement orders rows by (τg, τb); Table2 already produces
// them in this order, but external callers composing custom requirement
// sets can normalize with this.
func SortRowsByRequirement(rows []Table2Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Req.TauG != rows[j].Req.TauG {
			return rows[i].Req.TauG < rows[j].Req.TauG
		}
		return rows[i].Req.TauB < rows[j].Req.TauB
	})
}

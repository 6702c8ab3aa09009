package experiments

import (
	"fmt"

	"joinopt/internal/estimate"
	"joinopt/internal/eval"
	"joinopt/internal/join"
	"joinopt/internal/retrieval"
	"joinopt/internal/workload"
)

// Estimation is an extension experiment (not a paper artifact, labeled as
// such): the accuracy of the on-the-fly MLE parameter estimation of §VI as
// a function of the observation window, against the generator's ground
// truth. Columns per window: the estimated vs true value-population total
// |Ag|+|Ab|, good-document count |Dg|, good-good overlap Agg, and the
// cross-validation divergence the adaptive pilot consults.
func Estimation(w *workload.Workload) (*eval.Table, error) {
	p := [2]struct{ tp, fp float64 }{}
	trueTotals := [2]int{}
	trueDg := [2]int{}
	for i := 0; i < 2; i++ {
		tp, err := w.TrueParams(i, 0.4)
		if err != nil {
			return nil, err
		}
		p[i].tp, p[i].fp = tp.TP, tp.FP
		trueTotals[i] = tp.Ag + tp.Ab
		trueDg[i] = tp.Dg
	}
	trueOv := w.TrueOverlaps()

	t := &eval.Table{
		Title: "Extension: on-the-fly estimation accuracy vs observation window (HQ side / EX side)",
		Header: []string{
			"window %", "est |Ag|+|Ab|", "true", "est |Dg|", "true",
			"est Agg", "true Agg", "cv divergence",
		},
	}
	for _, pct := range []int{5, 10, 20, 40} {
		x1, err := w.NewStrategy(0, retrieval.SC)
		if err != nil {
			return nil, err
		}
		x2, err := w.NewStrategy(1, retrieval.SC)
		if err != nil {
			return nil, err
		}
		e, err := join.NewIDJN(w.Side(0, 0.4), w.Side(1, 0.4), x1, x2)
		if err != nil {
			return nil, err
		}
		dr := w.DB[0].Size() * pct / 100
		st, err := join.Run(e, func(s *join.State) bool { return s.DocsRetrieved[0] >= dr })
		if err != nil {
			return nil, err
		}
		var obs [2]estimate.Observation
		var ests [2]*estimate.Estimated
		ok := true
		for i := 0; i < 2; i++ {
			obs[i] = estimate.FromState(st, i, w.DB[i].Size(), p[i].tp, p[i].fp, 0.3)
			est, err := estimate.Estimate(obs[i])
			if err != nil {
				ok = false
				break
			}
			ests[i] = est
		}
		if !ok {
			t.Rows = append(t.Rows, []string{fmt.Sprint(pct), "(window too thin)", "-", "-", "-", "-", "-", "-"})
			continue
		}
		ov := estimate.EstimateOverlaps(obs[0].ValueCounts, obs[1].ValueCounts, ests[0], ests[1])
		div, err := estimate.CrossValidate(obs[0])
		divText := "-"
		if err == nil {
			divText = fmt.Sprintf("%.2f", div)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pct),
			fmt.Sprintf("%d / %d", ests[0].Params.Ag+ests[0].Params.Ab, ests[1].Params.Ag+ests[1].Params.Ab),
			fmt.Sprintf("%d / %d", trueTotals[0], trueTotals[1]),
			fmt.Sprintf("%d / %d", ests[0].Params.Dg, ests[1].Params.Dg),
			fmt.Sprintf("%d / %d", trueDg[0], trueDg[1]),
			fmt.Sprint(ov.Agg),
			fmt.Sprint(trueOv.Agg),
			divText,
		})
	}
	return t, nil
}

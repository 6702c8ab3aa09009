package joinopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"joinopt"
)

// TestFillOrderInvariance pins that nothing observable depends on the IDs
// the extraction tables hand out. Which tuple and which join value gets
// which ID follows the order in which the tables fill, and each index's
// value-query memo fills the same way. Two tasks warm both with the same two
// plans in opposite orders. The next runs on each, an adaptive run with
// checkpoints and a fixed plan, must then agree byte for byte: outcomes,
// labelled tuples, NDJSON traces and checkpoints.
func TestFillOrderInvariance(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 2000, Seed: 2}
	oijn := joinopt.Plan{Algorithm: joinopt.OuterInnerJoin, Theta: [2]float64{0.4, 0.8},
		X: [2]joinopt.Strategy{joinopt.QueryRetrieve, joinopt.FilteredScan}, OuterIdx: 1}
	zgjn := joinopt.Plan{Algorithm: joinopt.ZigZagJoin, Theta: [2]float64{0.8, 0.4}}
	idjn := joinopt.Plan{Algorithm: joinopt.IndependentJoin, Theta: [2]float64{0.4, 0.4},
		X: [2]joinopt.Strategy{joinopt.Scan, joinopt.AutoQueryGen}}
	req := joinopt.Requirement{TauG: 64, TauB: 640}
	ctx := context.Background()

	run := func(warm ...joinopt.Plan) string {
		tk, err := joinopt.NewHQJoinEX(params)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range warm {
			if _, err := tk.Run(ctx, joinopt.Requirement{}, joinopt.WithPlan(p)); err != nil {
				t.Fatal(err)
			}
		}
		var out strings.Builder
		render := func(res *joinopt.RunResult, trace *bytes.Buffer) {
			o := res.Outcome
			fmt.Fprintf(&out, "plans %v total %v good %d bad %d time %v saved %v docs %v %v queries %v\n",
				res.Plans, res.TotalTime, o.GoodTuples, o.BadTuples, o.Time, o.CacheSaved,
				o.DocsProcessed, o.DocsRetrieved, o.Queries)
			for _, jt := range o.Tuples() {
				fmt.Fprintf(&out, "%v\n", jt)
			}
			out.Write(trace.Bytes())
		}

		var trace bytes.Buffer
		sink := joinopt.NewTraceFile(&trace)
		res, err := tk.Run(ctx, req, joinopt.WithTracer(joinopt.NewTrace(sink)),
			joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
				b, err := json.Marshal(ck)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "checkpoint %s\n", b)
			}))
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		render(res, &trace)

		trace.Reset()
		sink = joinopt.NewTraceFile(&trace)
		if res, err = tk.Run(ctx, joinopt.Requirement{}, joinopt.WithPlan(idjn), joinopt.WithTracer(joinopt.NewTrace(sink))); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		render(res, &trace)
		return out.String()
	}

	ab, ba := run(oijn, zgjn), run(zgjn, oijn)
	if ab == ba {
		return
	}
	la, lb := strings.Split(ab, "\n"), strings.Split(ba, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			t.Fatalf("runs after opposite fill orders differ at line %d:\nOIJN then ZGJN: %s\nZGJN then OIJN: %s", i+1, la[i], lb[i])
		}
	}
	t.Fatalf("runs after opposite fill orders differ in length: %d and %d lines", len(la), len(lb))
}

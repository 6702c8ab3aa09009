package joinopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"joinopt"
	"joinopt/internal/experiments"
)

// TestPlanMemoWarmthInvariance pins that nothing observable depends on the
// warmth of a task's plan-search memo. One task is warmed by every Table II
// row and by Task.Optimize calls; for every row, its adaptive runs must then
// match a run on a cold task byte for byte: outcome, labelled tuples,
// checkpoint stream and NDJSON trace. The untraced warm run takes its pilot
// from the memo; the traced one pilots for real but searches memoized
// evaluations. A run resumed on the warm task from one of the cold run's
// mid-run checkpoints must finish exactly as the uninterrupted cold run did.
// make race runs it under the race detector.
func TestPlanMemoWarmthInvariance(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 2000, Seed: 1}
	ctx := context.Background()
	newTask := func() *joinopt.Task {
		tk, err := joinopt.NewHQJoinEX(params)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	// run renders one adaptive run's result and checkpoint stream, and its
	// trace when traced; it also returns the wire form of each checkpoint.
	run := func(tk *joinopt.Task, req joinopt.Requirement, traced bool, opts ...joinopt.RunOption) (result, stream, trace string, cks [][]byte) {
		var st strings.Builder
		opts = append(opts, joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			b, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			cks = append(cks, b)
			fmt.Fprintf(&st, "checkpoint %s\n", b)
		}))
		var buf bytes.Buffer
		var sink *joinopt.TraceFile
		if traced {
			sink = joinopt.NewTraceFile(&buf)
			opts = append(opts, joinopt.WithTracer(joinopt.NewTrace(sink)))
		}
		res, err := tk.Run(ctx, req, opts...)
		if sink != nil {
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		return renderRun(res, err), st.String(), buf.String(), cks
	}

	warm := newTask()
	for _, r := range experiments.Table2Reqs {
		req := joinopt.Requirement(r)
		_, _ = warm.Run(ctx, req) // infeasible rows fail here and below alike
		_, _ = warm.Optimize(req)
	}

	resumed := 0
	for _, r := range experiments.Table2Reqs {
		req := joinopt.Requirement(r)
		coldRes, coldStream, coldTrace, cks := run(newTask(), req, true)
		warmRes, warmStream, warmTrace, _ := run(warm, req, true)
		plainRes, plainStream, _, _ := run(warm, req, false)
		for _, c := range []struct {
			what, got, want string
		}{
			{"traced result", warmRes, coldRes},
			{"traced checkpoint stream", warmStream, coldStream},
			{"trace", warmTrace, coldTrace},
			{"untraced result", plainRes, coldRes},
			{"untraced checkpoint stream", plainStream, coldStream},
		} {
			if c.got != c.want {
				t.Errorf("τg=%d τb=%d: warm %s differs from cold at line %d:\nwarm: %s\ncold: %s",
					req.TauG, req.TauB, c.what, firstDiff(c.got, c.want), lineAt(c.got, firstDiff(c.got, c.want)), lineAt(c.want, firstDiff(c.got, c.want)))
			}
		}
		if len(cks) < 3 {
			continue
		}
		var ck joinopt.AdaptiveCheckpoint
		if err := json.Unmarshal(cks[len(cks)/2], &ck); err != nil {
			t.Fatal(err)
		}
		res, err := warm.Run(ctx, req, joinopt.WithCheckpoint(&ck))
		if got := renderRun(res, err); got != coldRes {
			t.Errorf("τg=%d τb=%d: resumed on the warm task from checkpoint %d of %d:\n got  %s\n want %s",
				req.TauG, req.TauB, len(cks)/2+1, len(cks), got, coldRes)
		}
		resumed++
	}
	if resumed == 0 {
		t.Fatal("no row persisted a mid-run checkpoint; the resume half of the test checks nothing")
	}
	t.Logf("%d rows resumed from a mid-run checkpoint", resumed)
}

// renderRun prints an adaptive run's plans, times, errors, outcome and
// labelled tuples.
func renderRun(res *joinopt.RunResult, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err %v\n", err)
	if res == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "plans %v total %v checkpoint errors %q\n", res.Plans, res.TotalTime, res.CheckpointErrs)
	if o := res.Outcome; o != nil {
		fmt.Fprintf(&b, "good %d bad %d time %v saved %v docs %v %v queries %v\n",
			o.GoodTuples, o.BadTuples, o.Time, o.CacheSaved, o.DocsProcessed, o.DocsRetrieved, o.Queries)
		for _, jt := range o.Tuples() {
			fmt.Fprintf(&b, "%v\n", jt)
		}
	}
	return b.String()
}

// firstDiff returns the 1-based number of the first line where a and b
// differ.
func firstDiff(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}

// lineAt returns line n (1-based) of s, or "<end>" past its last line.
func lineAt(s string, n int) string {
	lines := strings.Split(s, "\n")
	if n > len(lines) {
		return "<end>"
	}
	return lines[n-1]
}

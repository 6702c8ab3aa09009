package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"joinopt"
	"joinopt/internal/experiments"
)

// mergeCost is the n-ary tasks' cost-model time per intermediate tuple, the
// value the repository's n-way example uses. Nonzero, so the join-tree
// choice matters.
const mergeCost = 0.05

// corpusSeed generates adaptive-8k's corpus and the n-ary probe tasks'
// corpora: the facade's default. The benchmark seed orders the operations
// instead, as corpora that varied with it would move the deterministic
// metrics from seed to seed.
const corpusSeed = 1

// naryQueries are the n-ary query graphs whose planning the traced run
// times: a 4-star, a 5-chain and a 6-star over HQ/EX/MG. Stars enumerate
// far more csg-cmp pairs than chains.
func naryQueries() []joinopt.Query {
	rels := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = []string{"HQ", "EX", "MG"}[i%3]
		}
		return out
	}
	star := func(k int) [][2]int {
		var j [][2]int
		for i := 1; i < k; i++ {
			j = append(j, [2]int{0, i})
		}
		return j
	}
	return []joinopt.Query{
		{Relations: rels(4), Joins: star(4)},
		{Relations: rels(5)},
		{Relations: rels(6), Joins: star(6)},
	}
}

// tableRows returns the Table II requirements with τg ≤ maxTauG (0 = all).
func tableRows(maxTauG int) []joinopt.Requirement {
	var out []joinopt.Requirement
	for _, r := range experiments.Table2Reqs {
		if maxTauG == 0 || r.TauG <= maxTauG {
			out = append(out, joinopt.Requirement{TauG: r.TauG, TauB: r.TauB})
		}
	}
	return out
}

// library drives adaptive-8k: adaptive Task.Run through the joinopt facade
// in this process, one caller in a closed loop over a seeded permutation of
// the Table II rows.
type library struct {
	docs   int
	rows   []joinopt.Requirement
	order  []int // seeded permutation of the rows
	task   *joinopt.Task
	check  *checker
	probeN int // documents per side in the direct layer calls
}

func newLibrary(sc scale, seed int64) *library {
	l := &library{docs: sc.libDocs, rows: tableRows(sc.adaptiveTauG), check: newChecker(), probeN: sc.probeDocs}
	l.order = rand.New(rand.NewSource(seed)).Perm(len(l.rows))
	return l
}

func (l *library) params() joinopt.WorkloadParams {
	return joinopt.WorkloadParams{NumDocs: l.docs, Seed: corpusSeed}
}

// setup builds the task and runs the warm-up pass: every row once, which
// fills the IE candidate memo and records the reference outputs. A
// repeated set-up replaces the previous task.
func (l *library) setup(ctx context.Context, tr *tracer) error {
	l.task = nil
	runtime.GC()
	var task *joinopt.Task
	var err error
	tr.call("workload.build", func() { task, err = joinopt.NewHQJoinEX(l.params()) })
	if err != nil {
		return err
	}
	l.task = task
	for r, req := range l.rows {
		res, err := task.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("warm-up τg=%d τb=%d: %w", req.TauG, req.TauB, err)
		}
		if !l.check.match(strconv.Itoa(r), runFingerprint(res)) {
			return fmt.Errorf("warm-up τg=%d τb=%d: output differs from the first execution", req.TauG, req.TauB)
		}
	}
	return nil
}

func (l *library) callers() int { return 1 }

func (l *library) op(ctx context.Context, _ int, i int, tr *tracer) opResult {
	row := l.order[i%len(l.order)]
	req := l.rows[row]
	var opts []joinopt.RunOption
	var st *stamper
	if tr != nil {
		st = &stamper{tr: tr}
		opts = append(opts, joinopt.WithTracer(joinopt.NewTrace(st)))
	}
	start := time.Now()
	res, err := l.task.Run(ctx, req, opts...)
	end := time.Now()
	r := opResult{latency: end.Sub(start)}
	if err != nil {
		r.failed, r.why = true, err.Error()
		return r
	}
	fp := runFingerprint(res)
	if !l.check.match(strconv.Itoa(row), fp) {
		r.failed, r.mismatch = true, true
		r.why = fmt.Sprintf("τg=%d τb=%d: output differs from the first execution", req.TauG, req.TauB)
	}
	r.executed = true
	r.met = fp.Good >= float64(req.TauG) && fp.Bad <= float64(req.TauB)
	r.modelTime = res.TotalTime
	if o := res.Outcome; o != nil {
		r.outTime = o.Time
		r.docs = o.DocsProcessed[0] + o.DocsProcessed[1]
		r.queries = o.Queries[0] + o.Queries[1]
	}
	if tr != nil {
		root := tr.add(0, 0, "op", tr.at(start), tr.at(end))
		st.spans(root)
		r.events, r.chosen = st.events, st.chosen
	}
	return r
}

func (l *library) cpuSeconds() float64 { return selfCPU() }

func (l *library) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (l *library) close() error {
	l.task = nil
	return nil
}

func (l *library) info() map[string]any {
	return map[string]any{"docs": l.docs, "rows": len(l.rows)}
}

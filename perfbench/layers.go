package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"joinopt"
	"joinopt/internal/classifier"
	"joinopt/internal/cluster"
	"joinopt/internal/corpus"
	"joinopt/internal/durable"
	"joinopt/internal/estimate"
	"joinopt/internal/extract"
	"joinopt/internal/index"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/querygraph"
	"joinopt/internal/service"
	"joinopt/internal/workload"
)

// The direct layer calls of a traced run are timed one call per span, so
// each layer's number is its per-call self time. They run on an internal
// copy of the workload built with the same parameters as the task, which
// is deterministic and therefore holds the same corpora, IE systems,
// indexes and training splits.

// probeRows picks the requirements the direct optimizer calls plan for:
// the first, middle and last of the workload's feasible rows.
func probeRows(rows []joinopt.Requirement, feasible func(int) bool) []joinopt.Requirement {
	var ok []joinopt.Requirement
	for i, r := range rows {
		if feasible(i) {
			ok = append(ok, r)
		}
	}
	if len(ok) == 0 {
		return nil
	}
	return []joinopt.Requirement{ok[0], ok[len(ok)/2], ok[len(ok)-1]}
}

// probe makes adaptive-8k's direct layer calls: the binary layers on an
// internal copy of its task, Task.Optimize on the task itself, and the
// n-ary planner on three 8k query tasks.
func (l *library) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	w, err := workload.HQJoinEX(workload.Params{NumDocs: l.docs, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	reqs := probeRows(l.rows, func(int) bool { return true })
	if err := probeBinary(tr, w, l.probeN, reqs); err != nil {
		return nil, err
	}
	if err := probeOptimize(tr, l.task, reqs); err != nil {
		return nil, err
	}
	return nil, probeNary(tr, l.params(), reqs)
}

// probeNary times n-ary planning per call: Task.OptimizeQuery (the measured
// n-ary inputs plus ChooseNary) on each of the query tasks, after one
// untimed call that measures the relations' IE rates, and the DPccp
// csg-cmp enumeration over each query graph.
func probeNary(tr *tracer, p joinopt.WorkloadParams, reqs []joinopt.Requirement) error {
	for _, q := range naryQueries() {
		task, err := joinopt.NewQuery(p, q)
		if err != nil {
			return err
		}
		task.MergeCost = mergeCost
		if _, err := task.OptimizeQuery(reqs[0]); err != nil {
			return err
		}
		for _, r := range reqs {
			tr.call("optimizer.choose_nary", func() { _, err = task.OptimizeQuery(r) })
			if err != nil {
				return err
			}
		}
		g, err := querygraph.Spec{Relations: q.Relations, Joins: q.Joins}.Graph()
		if err != nil {
			return err
		}
		for range 200 {
			pairs := 0
			tr.call("querygraph.csgcmp", func() { g.CsgCmpPairs(func(_, _ uint64) { pairs++ }) })
		}
	}
	return nil
}

// probeBinary times the layers under a two-relation task: classifier
// training, extraction with and without the candidate memo, value-query
// search, and one pilot's estimation and plan choice.
func probeBinary(tr *tracer, w *workload.Workload, n int, reqs []joinopt.Requirement) error {
	for side := 0; side < 2; side++ {
		var err error
		tr.call("classifier.train", func() { _, err = classifier.TrainRules(w.Train[side], w.Task[side], 12, 2, 0.5) })
		if err != nil {
			return fmt.Errorf("training side %d: %w", side+1, err)
		}
		probeExtract(tr, w.Sys[side], w.DB[side], n)
		probeSearch(tr, w.Ix[side], w.DB[side].Stats(w.Task[side]), n)
	}
	env, err := w.NewEnv(joinopt.Knobs)
	if err != nil {
		return err
	}
	in, pilot, err := optimizer.PilotEstimate(env, optimizer.Options{})
	if err != nil {
		return err
	}
	for side := 0; side < 2; side++ {
		tp, fp := env.Rates(side, joinopt.Knobs[0])
		obs := estimate.FromState(pilot, side, env.NumDocs[side], tp, fp, env.BadInGoodPrior)
		tr.call("estimate.Estimate", func() { _, err = estimate.Estimate(obs) })
		if err != nil {
			return err
		}
	}
	for _, r := range reqs {
		tr.call("optimizer.Choose", func() {
			_, _, err = optimizer.Choose(optimizer.Enumerate(joinopt.Knobs), in, optimizer.Requirement(r))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeExtract runs the IE system over the first n documents: Scan
// bypasses the candidate memo; Extract is timed once the memo is warm.
func probeExtract(tr *tracer, sys *extract.System, db *corpus.DB, n int) {
	docs := db.Docs[:min(n, db.Size())]
	for _, d := range docs {
		tr.call("extract.scan", func() { sys.Scan(d.Text) })
	}
	for _, d := range docs {
		sys.Extract(d.Text, joinopt.Knobs[0])
	}
	for _, d := range docs {
		tr.call("extract.lookup", func() { sys.Extract(d.Text, joinopt.Knobs[0]) })
	}
}

// probeSearch sends value queries for the relation's join values.
func probeSearch(tr *tracer, ix *index.Index, stats *corpus.TaskStats, n int) {
	var values []string
	for v := range stats.GoodFreq {
		values = append(values, v)
	}
	for v := range stats.BadFreq {
		values = append(values, v)
	}
	slices.Sort(values)
	buf := make([]int, 0, 64)
	for _, v := range values[:min(n, len(values))] {
		q := index.QueryFromValue(v)
		tr.call("index.search", func() { buf = ix.SearchInto(q, buf[:0]) })
	}
}

func probeOptimize(tr *tracer, task *joinopt.Task, reqs []joinopt.Requirement) error {
	for _, r := range reqs {
		var err error
		tr.call("optimizer.optimize", func() { _, err = task.Optimize(r) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probe makes fleet-2r's direct layer calls on the first cache-free spec:
// the binary layers, Task.Optimize, the durable store on the state dirs'
// filesystem with payloads from this run's jobs, and standby replication
// round trips with a real checkpoint.
func (f *fleet) probe(ctx context.Context, tr *tracer) (map[string]float64, error) {
	spec := f.specs[2]
	n := f.probeN
	task, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: f.docs, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	reqs := probeRows(f.rows, func(r int) bool { return !f.infeasible[fleetJob{spec: 2, row: r}] })
	if reqs == nil {
		return nil, fmt.Errorf("spec %d has no feasible row", spec.Seed)
	}
	var checkpoint []byte
	row := reqs[len(reqs)-1]
	if _, err := task.Run(ctx, row, joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
		if b, err := json.Marshal(ck); err == nil {
			checkpoint = b
		}
	})); err != nil {
		return nil, err
	}
	if checkpoint == nil {
		return nil, fmt.Errorf("no checkpoint captured")
	}
	if err := probeOptimize(tr, task, reqs); err != nil {
		return nil, err
	}
	w, err := workload.HQJoinEX(workload.Params{NumDocs: f.docs, Seed: spec.Seed})
	if err != nil {
		return nil, err
	}
	if err := probeBinary(tr, w, n, reqs); err != nil {
		return nil, err
	}
	request, err := json.Marshal(service.JobRequest{Workload: f.workload(spec), TauG: row.TauG, TauB: row.TauB})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	result := []byte(f.resultPayload)
	f.mu.Unlock()
	errs, err := probeDurable(tr, filepath.Join(f.root, "probe-store"), w, request, checkpoint, result, n)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"durable.errors": errs}, f.probeStandby(ctx, tr, request, checkpoint)
}

// probeDurable times journal appends (three fsync'd records per job, as
// the service writes them), checkpoint and result snapshots, and the
// extraction-cache disk tier, and returns the store's error count.
func probeDurable(tr *tracer, dir string, w *workload.Workload, request, checkpoint, result []byte, n int) (float64, error) {
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	store, _, err := durable.Open(dir, durable.Options{Metrics: reg})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	for i := range 20 {
		id := fmt.Sprintf("probe-%06d", i)
		recs := []durable.Record{
			{Seq: uint64(i + 1), Event: durable.EventSubmitted, JobID: id, Tenant: "default", Request: request},
			{Seq: uint64(i + 1), Event: durable.EventStarted, JobID: id},
			{Seq: uint64(i + 1), Event: durable.EventFinished, JobID: id, State: service.StateDone},
		}
		for _, r := range recs {
			tr.call("durable.append", func() { store.Append(r) })
		}
		tr.call("durable.snapshot", func() { store.SaveCheckpoint(id, checkpoint) })
		tr.call("durable.snapshot", func() { store.SaveResult(id, result) })
	}
	tier := store.CacheTier("probe")
	if tier == nil {
		return 0, fmt.Errorf("cache tier unavailable in %s", dir)
	}
	docs := w.DB[0].Docs[:min(n, w.DB[0].Size())]
	for _, d := range docs {
		tuples := w.Sys[0].Extract(d.Text, joinopt.Knobs[0])
		tr.call("durable.tier_store", func() { tier.Store(pipeline.Key{Side: 0, DocID: d.ID, Theta: joinopt.Knobs[0]}, tuples) })
	}
	for _, d := range docs {
		tr.call("durable.tier_load", func() { tier.Load(pipeline.Key{Side: 0, DocID: d.ID, Theta: joinopt.Knobs[0]}) })
	}
	errs := 0.0
	for series, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(series, obs.MetricDurableErrs) {
			errs += float64(v)
		}
	}
	return errs, nil
}

// standbyWire mirrors the service's POST /v1/cluster/standby payload.
type standbyWire struct {
	ID         string          `json:"id"`
	Tenant     string          `json:"tenant"`
	Origin     string          `json:"origin"`
	Request    json.RawMessage `json:"request,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	Done       bool            `json:"done,omitempty"`
}

// probeStandby replicates a real checkpoint from replica 0's name to
// replica 1, as a running job's checkpoint sink does, and retires each
// entry right after.
func (f *fleet) probeStandby(ctx context.Context, tr *tracer, request, checkpoint []byte) error {
	c := f.clients[0]
	from, to := f.daemons[0], f.daemons[1]
	for i := range 20 {
		msg := standbyWire{ID: fmt.Sprintf("%s-probe%04d", from.name, i), Tenant: "default", Origin: from.name,
			Request: request, Checkpoint: checkpoint}
		body, err := json.Marshal(msg)
		if err != nil {
			return err
		}
		var code int
		tr.call("cluster.standby_post", func() { code, err = c.post(ctx, to.url+"/v1/cluster/standby", body, nil) })
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("standby POST: HTTP %d", code)
		}
		if err != nil {
			return err
		}
		retire, err := json.Marshal(standbyWire{ID: msg.ID, Tenant: msg.Tenant, Origin: msg.Origin, Done: true})
		if err != nil {
			return err
		}
		if code, err = c.post(ctx, to.url+"/v1/cluster/standby", retire, nil); err == nil && code != http.StatusOK {
			err = fmt.Errorf("standby retire: HTTP %d", code)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// scraped are the replicas' counters the fleet's traced phase reads.
var scraped = []string{obs.MetricCacheHits, obs.MetricCacheMisses, cluster.MetricForwards}

// fleetCounters turns the /metrics deltas over the traced phase into the
// fleet's counter metrics.
func fleetCounters(extra, before, after map[string]float64, p phase) map[string]float64 {
	if extra == nil {
		extra = map[string]float64{}
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	if h, m := delta(scraped[0]), delta(scraped[1]); h+m > 0 {
		extra["pipeline.cache_hit_frac"] = h / (h + m)
	}
	if len(p.ops) > 0 {
		extra["cluster.forward_frac"] = delta(scraped[2]+`{kind="proxy"}`) / float64(len(p.ops))
	}
	return extra
}

// layerMetrics derives the per-layer metrics from the traced run's spans
// and operations. Per-operation times divide a layer's total self time by
// the traced operations; per-call times divide it by the layer's calls.
func layerMetrics(tr *tracer, plain, p phase, extra map[string]float64) map[string]metric {
	self, count := tr.selfTimes()
	var ops []opResult
	for _, o := range p.ops {
		if !o.failed {
			ops = append(ops, o)
		}
	}
	n := float64(max(len(ops), 1))
	perOp := func(name string) float64 { return self[name] / 1e6 / n }
	perCall := func(name string, unit float64) float64 {
		if count[name] == 0 {
			return 0
		}
		return self[name] / unit / float64(count[name])
	}
	var docs, queries, events, chosen, redirects, refused, model, abandoned float64
	var local, proxied []float64
	for _, o := range ops {
		docs += float64(o.docs)
		queries += float64(o.queries)
		events += float64(o.events)
		chosen += float64(o.chosen)
		redirects += float64(o.redirects)
		if o.executed {
			model += o.modelTime
			abandoned += o.modelTime - o.outTime
		}
		if o.submit > 0 {
			if o.proxied {
				proxied = append(proxied, ms(o.submit))
			} else {
				local = append(local, ms(o.submit))
			}
		}
	}
	for _, o := range append(slices.Clone(plain.ops), p.ops...) {
		if o.refused {
			refused++
		}
	}
	forwardMS := 0.0
	if len(local) > 0 && len(proxied) > 0 {
		forwardMS = median(proxied) - median(local)
	}
	m := map[string]metric{
		"workload.build_s":          {perCall("workload.build", 1e9), "s"},
		"classifier.train_s":        {perCall("classifier.train", 1e9), "s"},
		"extract.scan_us":           {perCall("extract.scan", 1e3), "us"},
		"extract.lookup_us":         {perCall("extract.lookup", 1e3), "us"},
		"index.search_us":           {perCall("index.search", 1e3), "us"},
		"join.docs_per_op":          {docs / n, "count"},
		"join.queries_per_op":       {queries / n, "count"},
		"join.exec_ms":              {perOp("join.exec"), "ms"},
		"estimate.estimate_ms":      {perOp("estimate.estimate"), "ms"},
		"optimizer.choose_ms":       {perOp("optimizer.choose"), "ms"},
		"optimizer.chooses_per_op":  {chosen / n, "count"},
		"optimizer.abandoned_frac":  {ratio(abandoned, model), "ratio"},
		"optimizer.choose_nary_ms":  {perCall("optimizer.choose_nary", 1e6), "ms"},
		"querygraph.csgcmp_us":      {perCall("querygraph.csgcmp", 1e3), "us"},
		"optimizer.optimize_ms":     {perCall("optimizer.optimize", 1e6), "ms"},
		"obs.events_per_op":         {events / n, "count"},
		"obs.trace_overhead_frac":   {ratio(percentile(p.latencies(), 50), percentile(plain.latencies(), 50)) - 1, "ratio"},
		"go.gc_cpu_frac":            {plain.gcFrac, "ratio"},
		"pipeline.cache_hit_frac":   {extra["pipeline.cache_hit_frac"], "ratio"},
		"service.submit_ms":         {perOp("service.submit"), "ms"},
		"service.queue_wait_ms":     {perOp("service.queue_wait"), "ms"},
		"service.exec_ms":           {perOp("service.exec"), "ms"},
		"service.notify_ms":         {perOp("service.notify"), "ms"},
		"service.refused":           {refused, "count"},
		"durable.append_us":         {perCall("durable.append", 1e3), "us"},
		"durable.snapshot_us":       {perCall("durable.snapshot", 1e3), "us"},
		"durable.tier_store_us":     {perCall("durable.tier_store", 1e3), "us"},
		"durable.tier_load_us":      {perCall("durable.tier_load", 1e3), "us"},
		"durable.errors":            {extra["durable.errors"], "count"},
		"cluster.forward_frac":      {extra["cluster.forward_frac"], "ratio"},
		"cluster.forward_ms":        {forwardMS, "ms"},
		"cluster.redirects_per_job": {redirects / n, "count"},
		"cluster.standby_post_ms":   {perCall("cluster.standby_post", 1e6), "ms"},
		"estimate.estimate_call_ms": {perCall("estimate.Estimate", 1e6), "ms"},
		"optimizer.choose_call_ms":  {perCall("optimizer.Choose", 1e6), "ms"},
	}
	return m
}

package joinopt

import (
	"context"
	"fmt"

	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/obs"
	"joinopt/internal/optimizer"
	"joinopt/internal/workload"
)

// RunOption configures one Run call. Options override the task-level
// defaults (Task.Faults, Task.Retry, Task.Deadline, Task.Workers,
// Task.ExecWorkers, Task.ExtractCacheBytes) for that call only.
type RunOption func(*runConfig)

type runConfig struct {
	plan    *Plan
	stop    StopCondition
	trace   *Trace
	metrics *Metrics
	ck      *AdaptiveCheckpoint
	ckSink  func(*AdaptiveCheckpoint)
	retry   *RetryPolicy

	// The fault profile and the execution knobs start from the Task's
	// fields (newRunConfig) and the With* options override them.
	faults      *FaultProfile
	deadline    float64
	workers     int
	execWorkers int
	cacheBytes  int64

	qstop func(QueryProgress) bool
}

// newRunConfig seeds one run's configuration with the Task's fault profile
// and execution knobs, then applies opts over them. Binary and n-ary runs
// both resolve their options here.
func (t *Task) newRunConfig(opts []RunOption) *runConfig {
	cfg := &runConfig{
		faults:      t.Faults,
		deadline:    t.Deadline,
		workers:     t.Workers,
		execWorkers: t.ExecWorkers,
		cacheBytes:  t.ExtractCacheBytes,
	}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// WithPlan pins the run to a specific execution plan instead of letting the
// adaptive optimizer choose one: the plan runs to exhaustion (or until a
// WithStop condition, the deadline, or context cancellation stops it), and
// the requirement passed to Run is ignored.
func WithPlan(plan Plan) RunOption {
	return func(c *runConfig) { c.plan = &plan }
}

// WithStop installs a stop condition on a fixed-plan run (see WithPlan); it
// is inspected after every executor step. Adaptive runs ignore it — their
// stopping policy is the optimizer's.
func WithStop(stop StopCondition) RunOption {
	return func(c *runConfig) { c.stop = stop }
}

// WithQueryStop installs a stop condition on an n-ary query run; it is
// inspected after every executor step. Two-relation runs use WithStop.
func WithQueryStop(stop func(QueryProgress) bool) RunOption {
	return func(c *runConfig) { c.qstop = stop }
}

// WithFaults overrides the task's fault profile for this run (nil disables
// injection).
func WithFaults(p *FaultProfile) RunOption {
	return func(c *runConfig) { c.faults = p }
}

// WithRetries overrides the task's retry policy for this run.
func WithRetries(p RetryPolicy) RunOption {
	return func(c *runConfig) { c.retry = &p }
}

// WithDeadline overrides the task's cost-model deadline for this run
// (0 = none). A deadline-stopped Run returns its partial result together
// with an error wrapping ErrDeadline.
func WithDeadline(d float64) RunOption {
	return func(c *runConfig) { c.deadline = d }
}

// WithWorkers overrides the task's optimizer worker bound for this run.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithExecWorkers overrides the task's pipelined execution worker count for
// this run (0 or 1 = sequential). Any setting produces bit-identical
// results, accounting, and traces; workers only overlap extraction
// wall-clock time.
func WithExecWorkers(n int) RunOption {
	return func(c *runConfig) { c.execWorkers = n }
}

// WithExtractionCache overrides the task's extraction-cache capacity in
// bytes for this run (0 disables caching). The cache is shared across the
// run's pilot, abandoned, and final executions — and across later runs at
// the same capacity — so re-extracting a cached document at the same θ is
// charged zero extraction time.
func WithExtractionCache(bytes int64) RunOption {
	return func(c *runConfig) { c.cacheBytes = bytes }
}

// WithTracer attaches a trace to the run: executors, fault injectors,
// retrieval strategies, and the adaptive optimizer emit structured events to
// it. A nil trace is free (the instrumentation short-circuits).
func WithTracer(tr *Trace) RunOption {
	return func(c *runConfig) { c.trace = tr }
}

// WithMetrics attaches a metrics registry to the run: live counters mirror
// the execution as it progresses, and the joinopt_run_* gauges report the
// final Result exactly when the run completes.
func WithMetrics(m *Metrics) RunOption {
	return func(c *runConfig) { c.metrics = m }
}

// WithCheckpoint resumes an interrupted adaptive run from its checkpoint
// instead of starting a fresh one (the pilot is not re-run). Ignored on
// fixed-plan runs.
func WithCheckpoint(ck *AdaptiveCheckpoint) RunOption {
	return func(c *runConfig) { c.ck = ck }
}

// WithCheckpointSink streams each resumable checkpoint the adaptive protocol
// produces — at plan choice, commit, switch, and finish-phase transitions —
// to sink as the run progresses, so a durable store can persist them and a
// crash can resume from the most recent one (see WithCheckpoint). The sink
// runs synchronously on the run's goroutine and must treat the checkpoint as
// read-only; serialize it (json.Marshal) before handing it elsewhere.
// Ignored on fixed-plan runs.
func WithCheckpointSink(sink func(*AdaptiveCheckpoint)) RunOption {
	return func(c *runConfig) { c.ckSink = sink }
}

// RunResult is the outcome of a Run: the executed final outcome, the plan
// decision sequence (a single entry on fixed-plan runs), the total billed
// cost-model time including pilot and abandoned work, any non-fatal
// checkpoint optimization failures, and — when the run was interrupted by
// context cancellation — the checkpoint to resume it from.
type RunResult struct {
	Outcome        *Outcome
	Plans          []Plan
	TotalTime      float64
	CheckpointErrs []string
	Checkpoint     *AdaptiveCheckpoint

	// Query is set instead of Outcome on n-ary query runs: the chosen plan
	// and the executed per-relation statistics.
	Query *QueryOutcome
}

// configure resolves the per-run options and pushes the result into a
// private per-run clone of the workload, so concurrent Run calls never
// observe each other's configuration. It returns the resolved config and
// the clone the run must execute against.
func (t *Task) configure(opts []RunOption) (*runConfig, *workload.Workload) {
	cfg := t.newRunConfig(opts)
	var fp *faults.Profile
	if cfg.faults != nil {
		fp = cfg.faults.p
	}
	retry := t.Retry
	if cfg.retry != nil {
		retry = *cfg.retry
	}
	w := t.w.Clone()
	w.ExecWorkers = cfg.execWorkers
	w.Cache = t.extractCache(cfg.cacheBytes)
	w.Faults = fp
	w.Retry = join.RetryPolicy{
		MaxRetries:    retry.MaxRetries,
		BaseDelay:     retry.BaseDelay,
		MaxDelay:      retry.MaxDelay,
		FailureBudget: retry.FailureBudget,
	}
	w.Deadline = cfg.deadline
	w.Trace = cfg.trace
	w.Metrics = cfg.metrics
	return cfg, w
}

// Run is the task's single execution entry point. By default it runs the
// paper's §VI adaptive protocol against req: scan a pilot window, estimate
// the database statistics, choose the fastest plan predicted to meet the
// requirement, execute it, and re-optimize at checkpoints. WithPlan pins a
// specific plan instead (req is then ignored), and WithCheckpoint resumes an
// interrupted adaptive run. Context cancellation stops the run cooperatively
// at the next executor step, returning the partial result (with a resumable
// Checkpoint on adaptive runs) together with ctx.Err(); a deadline-stopped
// run returns its result together with an error wrapping ErrDeadline.
//
// On an n-ary query task (NewQuery over three or more relations) Run
// instead plans the query with the DP join-tree enumerator against
// perfect-knowledge measured parameters and executes the chosen tree: the
// result's Query field carries the plan and per-relation statistics, and
// WithQueryStop, WithWorkers, WithExecWorkers, WithExtractionCache,
// WithDeadline, and WithTracer apply; the two-relation-only options
// (WithPlan, WithStop, fault injection, retries, checkpoints, metrics)
// return a descriptive error.
//
// A Task is safe for concurrent Run calls: each run executes against a
// private view of the workload, sharing only the immutable machinery, the
// internally synchronized extraction memo, and the shared extraction cache.
// Give each concurrent run its own Trace (a shared Trace interleaves events
// and its clock follows whichever executor was constructed last); a shared
// Metrics registry is safe but accumulates all runs into the same series.
// The Task's configuration fields (Workers, Faults, Retry, Deadline,
// ExecWorkers, ExtractCacheBytes, MergeCost) must not be mutated while runs
// are in flight — configure them up front or per call via options.
func (t *Task) Run(ctx context.Context, req Requirement, opts ...RunOption) (*RunResult, error) {
	if t.mw != nil {
		return t.runQuery(ctx, req, opts)
	}
	cfg, w := t.configure(opts)
	if cfg.plan != nil {
		return t.runFixed(ctx, w, cfg)
	}
	return t.runAdaptive(ctx, w, req, cfg)
}

// runFixed executes one pinned plan.
func (t *Task) runFixed(ctx context.Context, w *workload.Workload, cfg *runConfig) (*RunResult, error) {
	plan := *cfg.plan
	if cfg.trace.Enabled() {
		cfg.trace.EmitAt(0, obs.KindRunStart, 0, map[string]any{"mode": "fixed", "plan": plan.String()})
	}
	exec, err := w.NewExecutor(plan.spec())
	if err != nil {
		return nil, err
	}
	var sf join.StopFunc
	if cfg.stop != nil {
		sf = func(st *join.State) bool {
			return cfg.stop(Progress{
				GoodTuples: st.GoodPairs, BadTuples: st.BadPairs,
				DocsProcessed: st.DocsProcessed, DocsRetrieved: st.DocsRetrieved,
				Queries: st.Queries, Time: st.Time,
			})
		}
	}
	st, err := join.RunCtx(ctx, exec, sf)
	out := outcomeOf(plan, st)
	res := &RunResult{Outcome: out, Plans: []Plan{plan}, TotalTime: st.Time}
	t.sealRun(cfg, res, "fixed")
	if err == nil && st.DeadlineHit {
		err = fmt.Errorf("joinopt: %s: %w", plan, ErrDeadline)
	}
	return res, err
}

// runAdaptive executes (or resumes) the adaptive protocol.
func (t *Task) runAdaptive(ctx context.Context, w *workload.Workload, req Requirement, cfg *runConfig) (*RunResult, error) {
	mode := "adaptive"
	if cfg.ck != nil {
		mode = "resume"
	}
	if cfg.trace.Enabled() {
		cfg.trace.EmitAt(0, obs.KindRunStart, 0, map[string]any{"mode": mode, "tau_g": req.TauG, "tau_b": req.TauB})
	}
	env, err := w.NewEnv(Knobs)
	if err != nil {
		return nil, err
	}
	oopts := optimizer.Options{ChooseWorkers: cfg.workers}
	if sink := cfg.ckSink; sink != nil {
		oopts.Persist = func(c *optimizer.Checkpoint) { sink(&AdaptiveCheckpoint{ck: c}) }
	}
	var ores *optimizer.Result
	if cfg.ck != nil {
		ores, err = optimizer.ResumeAdaptiveCtx(ctx, env, optimizer.Requirement(req), oopts, cfg.ck.ck)
	} else {
		ores, err = optimizer.RunAdaptiveCtx(ctx, env, optimizer.Requirement(req), oopts)
	}
	if ores == nil {
		return nil, err
	}
	res := &RunResult{TotalTime: ores.TotalTime}
	for _, d := range ores.Decisions {
		res.Plans = append(res.Plans, planFromSpec(d.Chosen.Plan))
	}
	for _, ce := range ores.CheckpointErrs {
		res.CheckpointErrs = append(res.CheckpointErrs, ce.Error())
	}
	if ores.Checkpoint != nil {
		res.Checkpoint = &AdaptiveCheckpoint{ck: ores.Checkpoint}
	}
	if ores.Final != nil && len(res.Plans) > 0 {
		res.Outcome = outcomeOf(res.Plans[len(res.Plans)-1], ores.Final)
	}
	t.sealRun(cfg, res, mode)
	if err == nil && res.Outcome != nil && res.Outcome.DeadlineHit {
		err = fmt.Errorf("joinopt: %s: %w", res.Outcome.Plan, ErrDeadline)
	}
	return res, err
}

// sealRun publishes the run-level gauges and the run.end trace event from a
// completed run's result.
func (t *Task) sealRun(cfg *runConfig, res *RunResult, mode string) {
	switches := len(res.Plans) - 1
	if switches < 0 {
		switches = 0
	}
	if o := res.Outcome; o != nil {
		obs.PublishRun(cfg.metrics, o.DocsProcessed, o.DocsFailed, o.RetriesSpent, o.Queries,
			o.GoodTuples, o.BadTuples, o.Time, res.TotalTime, o.Degraded, o.DeadlineHit, switches)
	}
	if cfg.trace.Enabled() {
		attrs := map[string]any{"mode": mode, "total_time": res.TotalTime, "checkpoint_errs": len(res.CheckpointErrs)}
		if o := res.Outcome; o != nil {
			attrs["plan"] = o.Plan.String()
			attrs["good"] = o.GoodTuples
			attrs["bad"] = o.BadTuples
			attrs["time"] = o.Time
			attrs["degraded"] = o.Degraded
			attrs["deadline_hit"] = o.DeadlineHit
		}
		cfg.trace.EmitAt(res.TotalTime, obs.KindRunEnd, 0, attrs)
	}
}

package optimizer

import (
	"context"
	"errors"
	"fmt"
	"time"

	"joinopt/internal/estimate"
	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/obs"
	"joinopt/internal/retrieval"
)

// Env wires the adaptive optimizer to an execution environment: executor
// construction for arbitrary plans, the training-time IE characterization,
// and the offline-measurable retrieval/join parameters. The
// database-specific parameters are *not* supplied — the driver estimates
// them on the fly.
type Env struct {
	// NewExecutor builds a fresh executor for a plan.
	NewExecutor func(PlanSpec) (join.Executor, error)

	// NumDocs are the database sizes.
	NumDocs [2]int

	// Rates returns the training-time characterization tp(θ), fp(θ) of
	// side's IE system.
	Rates func(side int, theta float64) (tp, fp float64)

	// Thetas are the available knob settings (the pilot uses Thetas[0]).
	Thetas []float64

	Costs      [2]model.Costs
	CasualHits [2]float64
	Mentioned  [2]int
	SeedCount  int

	// AQG are the per-side learned-query statistics (offline measurable).
	AQG [2][]model.QueryParam

	// Ctp and Cfp are the Filtered Scan classifier rates per side,
	// characterized offline on the training split.
	Ctp [2]float64
	Cfp [2]float64

	// QPrec and TopK are the value-query parameters per side.
	QPrec [2]float64
	TopK  [2]int

	// BadInGoodPrior seeds the estimator (see estimate.Observation).
	BadInGoodPrior float64

	// CacheHitRate, when set, reports the extraction cache's observed hit
	// rate so far for side (0 when cold). Every estimation folds it into
	// Inputs.CacheHitRate: documents the cache already holds are free to
	// re-extract under a plan switch. workload.NewEnv reports one rate for
	// both sides: the cache's lifetime hits over lookups, over both sides,
	// so plan choice follows the cache's history.
	CacheHitRate func(side int) float64

	// Memo, when set, serves plan search from the task's plan-search memo,
	// and PurePilot lets it serve the pilot too (see Memo). Set PurePilot
	// only when the pilot is a pure function of the task: NewExecutor's
	// executions use no extraction cache, inject no faults and stop at no
	// deadline, and no trace sink or metrics registry observes them. The
	// memoized pilot is keyed only by Thetas and the pilot options, so an
	// Env derived from another that replaces NewExecutor, Rates, NumDocs or
	// any other field the pilot reads must clear PurePilot (or Memo).
	Memo      *Memo
	PurePilot bool

	// Trace and Metrics, when set, observe the adaptive protocol itself:
	// pilot completion, plan decisions, checkpoints (and their non-fatal
	// failures), and plan switches, plus per-phase model/wall time. Both are
	// nil-safe and nil by default. Events are stamped at cumulative model
	// time, and their attributes are built only when Trace is enabled.
	Trace   *obs.Trace
	Metrics *obs.Registry
}

// Options tune the adaptive driver.
type Options struct {
	// PilotFraction of each database scanned by the pilot (default 0.10).
	PilotFraction float64
	// RecheckFraction of additional effort between re-optimizations
	// (default 0.25 of the chosen plan's predicted effort).
	RecheckFraction float64
	// MaxSwitches bounds plan changes after the pilot (default 2).
	MaxSwitches int
	// StableDivergence is the cross-validation divergence above which the
	// pilot window is extended before trusting the estimates (§VI's
	// robustness checking; default 0.45, capped at 3 extensions).
	StableDivergence float64
	// ChooseWorkers bounds the plan-space evaluation worker pool used at
	// the pilot and at every adaptive checkpoint (0 = one worker per CPU,
	// 1 = sequential; see Inputs.Workers).
	ChooseWorkers int

	// Persist, when set, receives a fresh resumable checkpoint at every
	// protocol transition the driver can later resume from: loop entry
	// (plan chosen or replay complete), a checkpoint decision committing to
	// the current plan, a plan switch, and each finish-phase round. A crash
	// after any of these points can resume from the persisted checkpoint
	// and — execution being deterministic — finish with the identical
	// result. The callback runs synchronously on the driver goroutine and
	// must treat the checkpoint as read-only (its Inputs are shared with
	// the live run).
	Persist func(*Checkpoint)
}

func (o *Options) defaults() {
	if o.PilotFraction <= 0 {
		o.PilotFraction = 0.10
	}
	if o.RecheckFraction <= 0 {
		o.RecheckFraction = 0.25
	}
	if o.MaxSwitches == 0 {
		o.MaxSwitches = 2
	}
	if o.StableDivergence <= 0 {
		o.StableDivergence = 0.45
	}
}

// Decision records one optimization step.
type Decision struct {
	AtTime   float64 // cumulative cost-model time when decided
	Chosen   Eval
	Switched bool
}

// Result is the outcome of an adaptive run.
type Result struct {
	Final     *join.State
	Pilot     *join.State // nil on resumed runs: the pilot is not re-run
	Decisions []Decision
	TotalTime float64
	Inputs    *Inputs // the estimated inputs behind the final decision

	// CheckpointErrs records Choose failures at adaptive checkpoints (e.g.
	// no plan feasible under the sharpened estimates). The driver falls
	// back to finishing the current plan rather than aborting, but the
	// errors are surfaced here instead of being silently dropped.
	CheckpointErrs []error

	// Checkpoint is set when the run was interrupted by context
	// cancellation; ResumeAdaptiveCtx continues from it. Nil on completed runs.
	Checkpoint *Checkpoint
}

// Phase identifies the protocol stage an interrupted adaptive run was in.
type Phase int

const (
	// PhaseExecute is the execution of the chosen plan headed for the
	// re-optimization checkpoint.
	PhaseExecute Phase = iota
	// PhaseCommitted is the run to planned effort after a checkpoint
	// decided to keep the current plan.
	PhaseCommitted
	// PhaseFinish is the achieved-quality effort-extension loop.
	PhaseFinish
)

// Checkpoint is a resumable snapshot of an interrupted adaptive run. It is
// an in-memory handle, not a wire format: the in-flight executor is captured
// as a compact join.Snapshot and reconstructed on resume by deterministic
// replay over an equivalent environment, so the resumed run re-encounters
// the same documents — and, under a seeded fault profile, the same injected
// faults — before continuing.
type Checkpoint struct {
	Phase          Phase
	Best           Eval    // the plan being executed
	Inputs         *Inputs // latest estimates behind Best
	Decisions      []Decision
	CheckpointErrs []error
	Switches       int
	TotalTime      float64       // billed time excluding the in-flight executor
	Exec           join.Snapshot // in-flight executor state

	// Finish-phase coordinates (valid when Phase == PhaseFinish): the
	// extended effort target, the extension round, and the stall-detection
	// progress snapshot taken before the interrupted run.
	Target [2]int
	Ext    int
	Prev   [2]int
}

// RunAdaptiveCtx executes the end-to-end §VI protocol: scan a pilot window,
// estimate the database-specific parameters by MLE, choose the fastest plan
// predicted to meet req, execute it, and re-optimize at checkpoints —
// switching plans (from scratch, keeping the time bill) when the sharpened
// estimates reveal a better option.
//
// Cancelling ctx stops the run cooperatively at the next executor step and
// returns the context error with Result.Checkpoint set, from which
// ResumeAdaptiveCtx continues. The pilot itself is not checkpointable;
// cancellation during the pilot takes effect at the first post-pilot step
// (the completed pilot's estimates are carried in the checkpoint, so the
// pilot cost is never paid twice).
func RunAdaptiveCtx(ctx context.Context, env *Env, req Requirement, opts Options) (*Result, error) {
	opts.defaults()
	if env.NewExecutor == nil || env.Rates == nil || len(env.Thetas) == 0 {
		return nil, fmt.Errorf("optimizer: incomplete environment")
	}
	res := &Result{}
	om := obs.NewOptMetrics(env.Metrics)
	wallStart := time.Now()

	in, pilotState, err := env.pilot(opts)
	if err != nil {
		return nil, err
	}
	res.Pilot = pilotState
	res.TotalTime += pilotState.Time
	in.Workers = opts.ChooseWorkers
	res.Inputs = in
	om.Phase("pilot", pilotState.Time, time.Since(wallStart).Seconds())
	if env.Trace.Enabled() {
		env.Trace.EmitAt(res.TotalTime, obs.KindPilotDone, 0, map[string]any{
			"docs1": pilotState.DocsProcessed[0], "docs2": pilotState.DocsProcessed[1], "time": pilotState.Time})
	}

	best, err := env.Memo.Best(Enumerate(env.Thetas), in, req)
	if err != nil {
		return res, err
	}
	res.Decisions = append(res.Decisions, Decision{AtTime: res.TotalTime, Chosen: best})
	om.Decision(false)
	if env.Trace.Enabled() {
		env.Trace.EmitAt(res.TotalTime, obs.KindPlanChosen, 0, map[string]any{
			"plan": best.Plan.String(), "effort1": best.Effort[0], "effort2": best.Effort[1], "predicted_time": best.Time})
	}

	return env.adaptiveLoop(ctx, res, req, opts, &Checkpoint{Phase: PhaseExecute, Best: best})
}

// ResumeAdaptiveCtx continues an interrupted adaptive run from its
// checkpoint over an equivalent environment (same workload, fault profile,
// and options). The in-flight executor is rebuilt and replayed to the
// checkpointed snapshot; at zero fault rate the resumed run finishes exactly
// as the uninterrupted one would have. The pilot is not re-run, so
// Result.Pilot is nil on resumed results. A resumed run can itself be
// interrupted and resumed again.
func ResumeAdaptiveCtx(ctx context.Context, env *Env, req Requirement, opts Options, ck *Checkpoint) (*Result, error) {
	opts.defaults()
	if ck == nil || ck.Inputs == nil {
		return nil, fmt.Errorf("optimizer: nil or incomplete checkpoint")
	}
	if env.NewExecutor == nil || env.Rates == nil || len(env.Thetas) == 0 {
		return nil, fmt.Errorf("optimizer: incomplete environment")
	}
	ck.Inputs.Workers = opts.ChooseWorkers
	res := &Result{
		Decisions:      append([]Decision(nil), ck.Decisions...),
		CheckpointErrs: append([]error(nil), ck.CheckpointErrs...),
		TotalTime:      ck.TotalTime,
		Inputs:         ck.Inputs,
	}
	return env.adaptiveLoop(ctx, res, req, opts, ck)
}

// adaptiveLoop drives the post-pilot protocol from a (possibly replayed)
// checkpoint. res must carry the estimates in res.Inputs and the billed time
// so far; ck positions the loop (phase, plan, switch count, in-flight
// executor snapshot). The stop predicates are pure functions of the
// execution state, so re-entering a phase with a replayed executor continues
// exactly where the interrupted run left off.
func (env *Env) adaptiveLoop(ctx context.Context, res *Result, req Requirement, opts Options, ck *Checkpoint) (*Result, error) {
	plans := Enumerate(env.Thetas)
	in := res.Inputs
	best := ck.Best
	switches := ck.Switches
	om := obs.NewOptMetrics(env.Metrics)
	phaseStart := time.Now()

	exec, err := env.NewExecutor(best.Plan)
	if err != nil {
		return res, fmt.Errorf("optimizer: building %s: %w", best.Plan, err)
	}
	if ck.Exec.Steps > 0 {
		if err := join.Replay(exec, ck.Exec); err != nil {
			return res, fmt.Errorf("optimizer: resuming %s: %w", best.Plan, err)
		}
	}

	interrupted := func(err error) bool {
		return err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
	}
	persist := func(c *Checkpoint) {
		if opts.Persist != nil {
			opts.Persist(c)
		}
	}
	checkpointed := func(phase Phase, target [2]int, ext int, prev [2]int) *Checkpoint {
		return &Checkpoint{
			Phase:          phase,
			Best:           best,
			Inputs:         in,
			Decisions:      append([]Decision(nil), res.Decisions...),
			CheckpointErrs: append([]error(nil), res.CheckpointErrs...),
			Switches:       switches,
			TotalTime:      res.TotalTime,
			Exec:           exec.State().Snapshot(),
			Target:         target,
			Ext:            ext,
			Prev:           prev,
		}
	}

	// finish seals the run through finishFrom, publishing the execute- and
	// finish-phase timings around it.
	finish := func(target [2]int, ext int, prev [2]int, inRun bool) (*Result, error) {
		om.Phase("execute", exec.State().Time, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
		t0 := exec.State().Time
		r, ferr := env.finishFrom(ctx, res, exec, best, req, target, ext, prev, inRun, checkpointed, persist)
		om.Phase("finish", exec.State().Time-t0, time.Since(phaseStart).Seconds())
		return r, ferr
	}

	persist(checkpointed(ck.Phase, ck.Target, ck.Ext, ck.Prev))
	if ck.Phase == PhaseFinish {
		return finish(ck.Target, ck.Ext, ck.Prev, true)
	}
	committed := ck.Phase == PhaseCommitted
	for {
		if committed {
			_, err := join.RunCtx(ctx, exec, func(s *join.State) bool {
				return effortReached(best.Plan, s, best.Effort)
			})
			if interrupted(err) {
				res.Checkpoint = checkpointed(PhaseCommitted, [2]int{}, 0, [2]int{})
				return res, err
			}
			if err != nil {
				return res, err
			}
			return finish(best.Effort, 0, [2]int{}, false)
		}
		// Run toward the re-optimization checkpoint.
		st, err := join.RunCtx(ctx, exec, func(s *join.State) bool {
			if effortReached(best.Plan, s, best.Effort) {
				return true
			}
			return effortFraction(best.Plan, s, best.Effort) >= opts.RecheckFraction && switches < opts.MaxSwitches
		})
		if interrupted(err) {
			res.Checkpoint = checkpointed(PhaseExecute, [2]int{}, 0, [2]int{})
			return res, err
		}
		if err != nil {
			return res, err
		}
		if effortReached(best.Plan, st, best.Effort) {
			return finish(best.Effort, 0, [2]int{}, false)
		}
		// Checkpoint: re-estimate when the current plan samples by
		// scanning (unbiased window); otherwise keep the current estimates.
		reestimated := false
		if scanLike(best.Plan) {
			if in2, _, err := env.estimateInputs(st, best.Plan.Theta[0]); err == nil {
				in2.Workers = opts.ChooseWorkers
				in = in2
				res.Inputs = in
				reestimated = true
			}
		}
		// The billed time at this decision point includes the in-flight
		// executor's work, whether we keep going (finish bills the full
		// state) or switch (billed below) — keeping decision timestamps
		// monotone and consistent with the switch path.
		now := res.TotalTime + st.Time
		om.Checkpoint()
		if env.Trace.Enabled() {
			env.Trace.EmitAt(now, obs.KindCheckpoint, 0, map[string]any{"plan": best.Plan.String(), "switches": switches})
		}
		// best was chosen by Choose over this same in and req (at the
		// pilot, at a switch, or by the run a resume continues), and Choose
		// is a pure function of its arguments: without new estimates the
		// checkpoint's choice is best itself.
		nb := best
		if reestimated {
			nb, err = env.Memo.Best(plans, in, req)
		}
		if err != nil || nb.Plan == best.Plan {
			// No better option (or no feasible plan under the sharpened
			// estimates): finish the current execution.
			if err != nil {
				res.CheckpointErrs = append(res.CheckpointErrs,
					fmt.Errorf("optimizer: checkpoint at t=%.0f: %w", now, err))
				om.CheckpointErr()
				if env.Trace.Enabled() {
					env.Trace.EmitAt(now, obs.KindCheckpointError, 0, map[string]any{"err": err.Error()})
				}
			} else {
				best = nb
				res.Decisions = append(res.Decisions, Decision{AtTime: now, Chosen: nb})
				om.Decision(false)
				if env.Trace.Enabled() {
					env.Trace.EmitAt(now, obs.KindPlanChosen, 0, map[string]any{
						"plan": best.Plan.String(), "effort1": best.Effort[0], "effort2": best.Effort[1], "predicted_time": best.Time})
				}
			}
			committed = true
			persist(checkpointed(PhaseCommitted, [2]int{}, 0, [2]int{}))
			continue
		}
		// Switch: bill the abandoned work and restart with the new plan.
		res.TotalTime += st.Time
		switches++
		om.Decision(true)
		if env.Trace.Enabled() {
			env.Trace.EmitAt(res.TotalTime, obs.KindPlanSwitch, 0, map[string]any{
				"from": best.Plan.String(), "to": nb.Plan.String(), "switches": switches})
		}
		best = nb
		res.Decisions = append(res.Decisions, Decision{AtTime: res.TotalTime, Chosen: best, Switched: true})
		if exec, err = env.NewExecutor(best.Plan); err != nil {
			return res, fmt.Errorf("optimizer: building %s: %w", best.Plan, err)
		}
		persist(checkpointed(PhaseExecute, [2]int{}, 0, [2]int{}))
	}
}

// PilotEstimate runs the estimation pilot — an IDJN scan window at the most
// permissive knob setting, whose sampling matches the estimator's
// assumptions — and returns the inferred optimizer inputs together with the
// pilot's execution state (its cost must be billed by the caller).
func PilotEstimate(env *Env, opts Options) (*Inputs, *join.State, error) {
	opts.defaults()
	if env.NewExecutor == nil || env.Rates == nil || len(env.Thetas) == 0 {
		return nil, nil, fmt.Errorf("optimizer: incomplete environment")
	}
	pilotTheta := env.Thetas[0]
	pilotPlan := PlanSpec{JN: IDJN, Theta: [2]float64{pilotTheta, pilotTheta}, X: [2]retrieval.Kind{retrieval.SC, retrieval.SC}}
	pilot, err := env.NewExecutor(pilotPlan)
	if err != nil {
		return nil, nil, fmt.Errorf("optimizer: building pilot: %w", err)
	}
	pilotDocs := int(opts.PilotFraction * float64(env.NumDocs[0]))
	if pilotDocs < 100 {
		pilotDocs = 100
	}
	var pilotState *join.State
	var in *Inputs
	// Extend the pilot window until the cross-validated estimates
	// stabilize (or the extension budget runs out) — §VI's robustness
	// checking.
	for ext := 0; ; ext++ {
		target := pilotDocs
		pilotState, err = join.Run(pilot, func(s *join.State) bool {
			return s.DocsProcessed[0] >= target && s.DocsProcessed[1] >= target
		})
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: pilot run: %w", err)
		}
		var obs [2]estimate.Observation
		in, obs, err = env.estimateInputs(pilotState, pilotTheta)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: pilot estimation: %w", err)
		}
		if ext >= 3 || pilotDocs >= env.NumDocs[0] {
			break
		}
		stable := true
		for side := 0; side < 2; side++ {
			div, cvErr := estimate.CrossValidate(obs[side])
			if cvErr != nil || div > opts.StableDivergence {
				stable = false
				break
			}
		}
		if stable {
			break
		}
		pilotDocs += pilotDocs / 2
		if pilotDocs > env.NumDocs[0] {
			pilotDocs = env.NumDocs[0]
		}
	}
	return in, pilotState, nil
}

// finishFrom drives an execution past its planned effort until the
// label-free achieved-quality estimate meets τg — the paper's stopping
// condition "estimated # good tuples in Rj ≥ τg" — extending the effort
// target geometrically (up to a bounded number of extensions) when the
// planned effort proves optimistic, then seals the result. When inRun is
// set, the loop resumes mid-iteration inside the interrupted run with the
// checkpointed target, extension round, and stall snapshot.
func (env *Env) finishFrom(ctx context.Context, res *Result, exec join.Executor, best Eval, req Requirement,
	target [2]int, ext int, prev [2]int, inRun bool,
	checkpointed func(Phase, [2]int, int, [2]int) *Checkpoint, persist func(*Checkpoint)) (*Result, error) {
	for ; ext < 5; ext++ {
		if !inRun {
			good, bad := env.achieved(exec.State(), best.Plan)
			if good >= float64(req.TauG) {
				break
			}
			if bad > float64(req.TauB) {
				// The algorithms' other stopping condition (Figures 3, 5, 7):
				// once the estimated bad output exceeds τb, continuing cannot
				// satisfy the requirement — return what was produced.
				break
			}
			// Extend the effort target by half and keep going; the run
			// returns immediately once the executor is exhausted.
			for side := 0; side < 2; side++ {
				if target[side] > 0 {
					target[side] += (target[side] + 1) / 2
				}
			}
			prev = progressSnapshot(best.Plan, exec.State())
			persist(checkpointed(PhaseFinish, target, ext, prev))
		}
		inRun = false
		if _, err := join.RunCtx(ctx, exec, func(s *join.State) bool {
			return effortReached(best.Plan, s, target)
		}); err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				res.Checkpoint = checkpointed(PhaseFinish, target, ext, prev)
			}
			return res, err
		}
		if progressSnapshot(best.Plan, exec.State()) == prev {
			break // exhausted: no further progress possible
		}
	}
	res.Final = exec.State()
	res.TotalTime += res.Final.Time
	return res, nil
}

// achieved estimates the good/bad composition of the current output without
// labels, via the mixture posteriors of freshly fitted estimates.
func (env *Env) achieved(st *join.State, plan PlanSpec) (good, bad float64) {
	var obs [2]estimate.Observation
	for side := 0; side < 2; side++ {
		tp, fp := env.Rates(side, plan.Theta[side])
		obs[side] = estimate.FromState(st, side, effectiveDocs(st, side, env.NumDocs[side]), tp, fp, env.BadInGoodPrior)
	}
	good, bad, side, err := estimate.EstimatePairSplit(obs[0], obs[1])
	if err != nil {
		// Too little data for a fit: fall back to the raw pair count
		// scaled by the training precision proxy of the side that failed.
		return fallbackSplit(float64(st.GoodPairs+st.BadPairs), obs[side].TP, obs[side].FP)
	}
	return good, bad
}

// fallbackSplit apportions total output pairs by the training precision
// proxy tp/(tp+fp). The zero-rate case (tp = fp = 0) is guarded: the ratio
// would be NaN, which poisons the τg stopping comparison in finish (NaN ≥ τg
// is always false, so the run would never stop on quality).
func fallbackSplit(total, tp, fp float64) (good, bad float64) {
	prec := 0.0
	if tp+fp > 0 {
		prec = tp / (tp + fp)
	}
	return total * prec, total * (1 - prec)
}

// progressSnapshot summarizes an execution's effort for stall detection.
func progressSnapshot(plan PlanSpec, st *join.State) [2]int {
	return [2]int{effortUnit(plan, st, 0), effortUnit(plan, st, 1)}
}

// effectiveDocs corrects a side's nominal database size for observed
// document loss. Documents that exhausted their retries were skipped, so the
// execution effectively samples from a database shrunk by the loss rate —
// scaling estimates to the nominal size would claim coverage the degraded
// run never had, inflating |Dg| and the achieved-quality numbers by exactly
// the loss rate. At zero loss this is the identity.
func effectiveDocs(st *join.State, side, numDocs int) int {
	failed := st.DocsFailed[side]
	if failed == 0 {
		return numDocs
	}
	seen := st.DocsProcessed[side] + failed
	eff := int(float64(numDocs)*(1-float64(failed)/float64(seen)) + 0.5)
	// The processed documents are certainly in the reachable population.
	if eff < st.DocsProcessed[side] {
		eff = st.DocsProcessed[side]
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}

// estimateInputs runs the MLE estimator on both sides of a scan-sampled
// state and assembles the optimizer inputs for every knob setting. It also
// returns the two sides' observations, which the pilot's stability check
// reuses.
func (env *Env) estimateInputs(st *join.State, obsTheta float64) (*Inputs, [2]estimate.Observation, error) {
	in := &Inputs{
		Thetas:     env.Thetas,
		Ov:         model.Overlaps{},
		Costs:      env.Costs,
		CasualHits: env.CasualHits,
		Mentioned:  env.Mentioned,
		SeedCount:  env.SeedCount,
	}
	if env.CacheHitRate != nil {
		in.CacheHitRate = [2]float64{env.CacheHitRate(0), env.CacheHitRate(1)}
	}
	var ests [2]*estimate.Estimated
	var obs [2]estimate.Observation
	for side := 0; side < 2; side++ {
		tp, fp := env.Rates(side, obsTheta)
		obs[side] = estimate.FromState(st, side, effectiveDocs(st, side, env.NumDocs[side]), tp, fp, env.BadInGoodPrior)
		est, err := estimate.Estimate(obs[side])
		if err != nil {
			return nil, obs, fmt.Errorf("side %d: %w", side+1, err)
		}
		ests[side] = est
		for _, theta := range env.Thetas {
			p := *est.Params // copy; per-θ rates below
			p.TP, p.FP = env.Rates(side, theta)
			p.AQG = env.AQG[side]
			p.QPrec = env.QPrec[side]
			p.TopK = env.TopK[side]
			p.Ctp, p.Cfp = env.Ctp[side], env.Cfp[side]
			in.P[side] = append(in.P[side], &p)
		}
	}
	in.Ov = estimate.EstimateOverlaps(obs[0].Counts, obs[1].Counts, ests[0], ests[1])
	return in, obs, nil
}

// effortUnit returns the per-side progress of a running execution in the
// units the optimizer planned in.
func effortUnit(plan PlanSpec, st *join.State, side int) int {
	switch plan.JN {
	case ZGJN:
		return st.Queries[side]
	case OIJN:
		if side != plan.OuterIdx {
			return 0
		}
		if plan.X[side] == retrieval.AQG {
			return st.Queries[side]
		}
		return st.DocsRetrieved[side]
	default:
		if plan.X[side] == retrieval.AQG {
			return st.Queries[side]
		}
		return st.DocsRetrieved[side]
	}
}

// effortReached reports whether the execution has spent the planned effort
// (or is exhausted relative to it).
func effortReached(plan PlanSpec, st *join.State, effort [2]int) bool {
	for side := 0; side < 2; side++ {
		if effort[side] > 0 && effortUnit(plan, st, side) < effort[side] {
			return false
		}
	}
	return true
}

// effortFraction is the progress toward the planned effort, in [0, 1].
func effortFraction(plan PlanSpec, st *join.State, effort [2]int) float64 {
	frac := 1.0
	seen := false
	for side := 0; side < 2; side++ {
		if effort[side] <= 0 {
			continue
		}
		seen = true
		f := float64(effortUnit(plan, st, side)) / float64(effort[side])
		if f < frac {
			frac = f
		}
	}
	if !seen {
		return 1
	}
	return frac
}

// scanLike reports whether a plan's sampling window is unbiased enough for
// re-estimation (scan or filtered-scan driven).
func scanLike(plan PlanSpec) bool {
	switch plan.JN {
	case IDJN:
		return plan.X[0] != retrieval.AQG && plan.X[1] != retrieval.AQG
	case OIJN:
		return plan.X[plan.OuterIdx] != retrieval.AQG
	default:
		return false
	}
}

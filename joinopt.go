// Package joinopt is a quality-aware join optimizer for relations extracted
// from text, reproducing "Join Optimization of Information Extraction
// Output: Quality Matters!" (Jain, Ipeirotis, Doan, Gravano — ICDE 2009).
//
// Unlike relational join optimization, joining the output of information
// extraction (IE) systems must optimize for *output quality* as well as
// execution time: different join execution plans — combinations of IE
// system configurations θ, document retrieval strategies (Scan, Filtered
// Scan, Automatic Query Generation), and join algorithms (Independent,
// Outer/Inner, Zig-Zag) — produce vastly different numbers of good and bad
// join tuples. This package exposes:
//
//   - synthetic text-database workloads with controlled extraction-quality
//     characteristics (NewHQJoinEX),
//   - the three join execution algorithms, runnable under any plan
//     (Task.Run with WithPlan),
//   - analytical models predicting each plan's output quality and time
//     (Task.EvaluatePlans),
//   - the quality-aware optimizer, including the fully adaptive variant
//     that estimates database statistics on the fly (Task.Optimize,
//     Task.Run),
//   - execution observability — structured tracing (WithTracer) and a
//     metrics registry with Prometheus-text export (WithMetrics) — with
//     zero overhead when detached,
//   - the experiment drivers regenerating every figure and table of
//     the paper's evaluation (Task.Figure, Task.TableII),
//   - and declarative N-way join queries (NewQuery): a query graph over
//     2..MaxQueryRelations extracted relations, planned by a DPccp-style
//     join-tree enumerator with the 2^n-class quality composition and
//     executed on the tree executor (the binary join is the two-relation
//     special case of the same API).
package joinopt

import (
	"fmt"
	"sync"

	"joinopt/internal/experiments"
	"joinopt/internal/faults"
	"joinopt/internal/join"
	"joinopt/internal/optimizer"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/verify"
	"joinopt/internal/workload"
)

// Algorithm names a join execution algorithm (§IV of the paper).
type Algorithm string

// The join algorithms.
const (
	IndependentJoin Algorithm = "IDJN" // extract both relations independently
	OuterInnerJoin  Algorithm = "OIJN" // query the inner relation per outer value
	ZigZagJoin      Algorithm = "ZGJN" // interleaved querying of both relations
)

// Strategy names a document retrieval strategy (§III-B).
type Strategy string

// The document retrieval strategies.
const (
	Scan          Strategy = "SC"
	FilteredScan  Strategy = "FS"
	AutoQueryGen  Strategy = "AQG"
	QueryRetrieve Strategy = "" // placeholder for sides reached by value queries
)

// Plan is a join execution plan ⟨E1⟨θ1⟩, E2⟨θ2⟩, X1, X2, JN⟩
// (Definition 3.1).
type Plan struct {
	Algorithm Algorithm
	Theta     [2]float64
	X         [2]Strategy
	// OuterIdx selects the Outer/Inner join's outer relation (0 or 1).
	OuterIdx int
}

// String renders the plan compactly.
func (p Plan) String() string { return p.spec().String() }

func (p Plan) spec() optimizer.PlanSpec {
	return optimizer.PlanSpec{
		JN:       optimizer.Algorithm(p.Algorithm),
		Theta:    p.Theta,
		X:        [2]retrieval.Kind{retrieval.Kind(p.X[0]), retrieval.Kind(p.X[1])},
		OuterIdx: p.OuterIdx,
	}
}

func planFromSpec(s optimizer.PlanSpec) Plan {
	return Plan{
		Algorithm: Algorithm(s.JN),
		Theta:     s.Theta,
		X:         [2]Strategy{Strategy(s.X[0]), Strategy(s.X[1])},
		OuterIdx:  s.OuterIdx,
	}
}

// Requirement is a user quality preference (§III-C): at least TauG good
// join tuples with at most TauB bad ones.
type Requirement struct {
	TauG int
	TauB int
}

// WorkloadParams scales a synthetic workload.
type WorkloadParams struct {
	// NumDocs is the number of documents in the first text database
	// (minimum 400), and the second unless NumDocs2 is set.
	NumDocs int
	// NumDocs2, when positive, sizes the second database differently (same
	// relation content in a bigger haystack).
	NumDocs2 int
	// Seed drives all generation randomness; equal seeds reproduce equal
	// workloads.
	Seed int64
	// TopK caps the search interface's results per query; 0 selects a
	// size-proportional default.
	TopK int
}

// FaultProfile configures deterministic, seedable fault injection on a
// task's databases, retrieval strategies, and classifiers. A zero-rate
// profile is provably transparent: execution is identical to an uninjected
// run (the join package's property tests pin this).
type FaultProfile struct {
	p *faults.Profile
}

// FaultProfileHelp is the canonical help text for flags and API fields that
// accept a ParseFaultProfile string; it lists the accepted keys.
var FaultProfileHelp = faults.FlagHelp

// ParseFaultProfile builds a fault profile from a compact string of
// comma-separated key=value pairs, e.g. "rate=0.05,seed=9,burst=2,cost=2".
// Keys: seed, rate, fetch, next, classify, trunc, stall, cost, burst,
// permanent (see FaultProfileHelp). Errors name the offending key or value
// and list the accepted vocabulary. An empty string yields nil (no
// injection).
func ParseFaultProfile(s string) (*FaultProfile, error) {
	p, err := faults.Parse(s)
	if err != nil || p == nil {
		return nil, err
	}
	return &FaultProfile{p: p}, nil
}

// UniformFaults injects transient single-call faults at the given rate on
// every document fetch, retrieval pull, and classification of both sides,
// deterministically derived from seed. The rate must lie in [0, 1): at 1
// every retrieval pull fails, a transient pull fault retries in place, and
// the run never finishes (ParseFaultProfile rejects such profiles).
func UniformFaults(seed int64, rate float64) *FaultProfile {
	return &FaultProfile{p: faults.Uniform(seed, rate)}
}

// RetryPolicy governs how executions recover from transient substrate
// failures. The zero value selects the defaults (3 retries with capped
// exponential backoff); MaxRetries -1 disables retrying. FailureBudget, when
// positive, aborts an execution once that many documents per side were lost
// to exhausted retries; 0 tolerates unlimited loss (skipped documents are
// still accounted in the Outcome).
type RetryPolicy struct {
	MaxRetries    int
	BaseDelay     float64
	MaxDelay      float64
	FailureBudget int
}

// Task is an extraction join task: text databases, IE systems, trained
// retrieval machinery, and gold labels for evaluation. NewTaskPair (and the
// two-relation NewQuery form) builds a binary task with the paper's full
// plan space; NewQuery over three or more relations builds an n-ary task
// planned by the DP join-tree enumerator. Methods documented as
// two-relation-only return a descriptive error on n-ary tasks.
//
// A Task is safe for concurrent Run calls (see Run for the exact contract);
// its exported configuration fields must be set before the first concurrent
// use and not mutated while runs are in flight.
type Task struct {
	w *workload.Workload

	// mw and joins are set instead of w on n-ary query tasks.
	mw    *workload.MultiWorkload
	joins [][2]int

	// Workers bounds the optimizer's parallel plan-space evaluation
	// (0 = one worker per CPU, 1 = sequential). Any setting returns the
	// identical plan choice; see the optimizer package's determinism
	// guarantee.
	Workers int

	// Faults, when set, injects deterministic substrate failures into every
	// execution of this task; Retry governs recovery, and Deadline — a
	// cost-model time, 0 = none — stops executions gracefully when exceeded.
	Faults   *FaultProfile
	Retry    RetryPolicy
	Deadline float64

	// ExecWorkers runs every execution of this task with a pipelined
	// extraction pool of that many workers: document extraction overlaps
	// ahead of the in-order consumer while tuples, cost accounting, traces,
	// and snapshots stay bit-identical to the sequential execution (0 or 1 =
	// sequential wall-clock behaviour).
	ExecWorkers int

	// ExtractCacheBytes, when positive, shares one byte-bounded extraction
	// cache across every execution of this task — pilot, abandoned, and
	// final plans of every Run alike — so re-processing a document at the
	// same θ is charged zero extraction time. The task keeps that one cache
	// at any worker count, and rebuilds it cold only when a run asks for a
	// different capacity. Inspect it with ExtractionCacheStats.
	ExtractCacheBytes int64

	// MergeCost (n-ary tasks) is the cost-model time charged per expected
	// intermediate tuple at every internal node of the executed join tree —
	// the knob the DP enumerator's tree choice trades against extraction
	// effort. Zero (the default) makes tuple composition free, matching the
	// binary executors' accounting.
	MergeCost float64

	// cacheMu guards the task's extraction cache, kept warm across runs
	// while its capacity is unchanged.
	cacheMu   sync.Mutex
	cache     *pipeline.Cache
	cacheCap  int64
	cacheTier pipeline.Tier

	verifierMu sync.Mutex
	verifiers  map[verifierKey]*verify.TemplateVerifier
}

// CacheStats is a point-in-time snapshot of the shared extraction cache's
// counters (hits, misses, evictions, resident bytes and entries).
type CacheStats = pipeline.CacheStats

// ExtractionCacheStats returns the current counters of the task's shared
// extraction cache. The zero value is returned when no cache is configured.
// It is safe to call concurrently with in-flight Run calls: the snapshot is
// internally consistent, though counters advance as runs progress.
func (t *Task) ExtractionCacheStats() CacheStats {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	return t.cache.Stats()
}

// SetExtractCacheTier attaches a second cache level behind the task's
// shared extraction cache — typically a disk store that survives process
// restarts, so a restarted daemon lazily re-warms from everything a crashed
// one had paid for. A cache rebuilt for a new capacity keeps the tier.
// Attach before runs start; nil detaches.
func (t *Task) SetExtractCacheTier(tier pipeline.Tier) {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	t.cacheTier = tier
	t.cache.SetTier(tier)
}

// extractCache resolves the task's extraction cache for a run of the given
// capacity, reusing it warm while the capacity is unchanged. A change
// rebuilds it, so the task never holds more than one budget's worth of
// cache; a run without a cache (bytes <= 0) drops it.
func (t *Task) extractCache(bytes int64) *pipeline.Cache {
	t.cacheMu.Lock()
	defer t.cacheMu.Unlock()
	if bytes != t.cacheCap {
		t.cache = pipeline.NewCache(bytes)
		t.cache.SetTier(t.cacheTier)
		t.cacheCap = bytes
	}
	return t.cache
}

// NewHQJoinEX builds the paper's primary workload: the Headquarters
// ⟨Company, Location⟩ relation hosted on one database joined with the
// Executives⟨Company, CEO⟩ relation hosted on another.
func NewHQJoinEX(p WorkloadParams) (*Task, error) {
	return NewTaskPair(p, "HQ", "EX")
}

// NewMGJoinEX builds the workload of the paper's motivating Example 1.1:
// Mergers⟨Company, MergedWith⟩ (a SeekingAlpha-like blog database) joined
// with Executives⟨Company, CEO⟩ (a WSJ-like archive).
func NewMGJoinEX(p WorkloadParams) (*Task, error) {
	return NewTaskPair(p, "MG", "EX")
}

// NewTaskPair builds a workload joining any two of the standard extraction
// tasks: "HQ" (Headquarters), "EX" (Executives), "MG" (Mergers).
func NewTaskPair(p WorkloadParams, rel1, rel2 string) (*Task, error) {
	if p.NumDocs == 0 {
		p.NumDocs = workload.DefaultParams.NumDocs
	}
	if p.Seed == 0 {
		p.Seed = workload.DefaultParams.Seed
	}
	w, err := workload.Pair(workload.Params{NumDocs: p.NumDocs, NumDocs2: p.NumDocs2, Seed: p.Seed, TopK: p.TopK}, rel1, rel2)
	if err != nil {
		return nil, err
	}
	return &Task{w: w}, nil
}

// Relations names the first two extracted relations; RelationNames covers
// every relation of an n-ary task.
func (t *Task) Relations() (r1, r2 string) {
	names := t.RelationNames()
	return names[0], names[1]
}

// DatabaseSizes returns the document counts of the first two databases;
// Sizes covers every database of an n-ary task.
func (t *Task) DatabaseSizes() (d1, d2 int) {
	sizes := t.Sizes()
	return sizes[0], sizes[1]
}

// JoinTuple is one labelled join result ⟨A, B, C⟩: ⟨A, B⟩ ∈ R1,
// ⟨A, C⟩ ∈ R2; Good reports whether both contributing tuples are correct.
type JoinTuple struct {
	A, B, C string
	Good    bool
}

// Outcome summarizes an executed join.
type Outcome struct {
	Plan Plan

	// GoodTuples and BadTuples are the output composition under the
	// paper's semantics (Σ_a gr1(a)·gr2(a) and its complement).
	GoodTuples int
	BadTuples  int

	// Time is the cost-model execution time (documents retrieved,
	// processed, filtered, and queries issued, each charged with the
	// workload's per-operation constants).
	Time float64

	// CacheSaved is the per-side extraction time the shared cache made
	// free. Time + ΣCacheSaved is invariant under cache warmth: a run over
	// a warm cache (a later job on the same workload, or a crash-recovery
	// resume over a disk tier) bills less Time but the same total.
	CacheSaved [2]float64

	// Work counters per side.
	DocsProcessed [2]int
	DocsRetrieved [2]int
	Queries       [2]int

	// Failure telemetry (meaningful under fault injection): documents lost
	// after exhausting retries, retries consumed, whether any loss left the
	// run with an incomplete view of the databases, and whether the deadline
	// cut it short.
	DocsFailed   [2]int
	RetriesSpent [2]int
	Degraded     bool
	DeadlineHit  bool

	state *join.State
}

// Tuples returns the labelled join tuples in deterministic order.
func (o *Outcome) Tuples() []JoinTuple {
	if o.state == nil {
		return nil
	}
	src := o.state.JoinTuples()
	out := make([]JoinTuple, len(src))
	for i, lt := range src {
		out[i] = JoinTuple{A: lt.Tuple.A, B: lt.Tuple.B, C: lt.Tuple.C, Good: lt.Good}
	}
	return out
}

func outcomeOf(plan Plan, st *join.State) *Outcome {
	return &Outcome{
		Plan:          plan,
		GoodTuples:    st.GoodPairs,
		BadTuples:     st.BadPairs,
		Time:          st.Time,
		CacheSaved:    st.CacheSaved,
		DocsProcessed: st.DocsProcessed,
		DocsRetrieved: st.DocsRetrieved,
		Queries:       st.Queries,
		DocsFailed:    st.DocsFailed,
		RetriesSpent:  st.RetriesSpent,
		Degraded:      st.Degraded,
		DeadlineHit:   st.DeadlineHit,
		state:         st,
	}
}

// StopCondition inspects a running execution after each step; returning
// true stops it. Progress carries the live output composition and work.
type StopCondition func(Progress) bool

// Progress is the observable state of a running execution.
type Progress struct {
	GoodTuples, BadTuples int
	DocsProcessed         [2]int
	DocsRetrieved         [2]int
	Queries               [2]int
	Time                  float64
}

// PlanEvaluation is the optimizer's model-based assessment of one plan.
type PlanEvaluation struct {
	Plan     Plan
	Feasible bool
	// EstimatedGood/Bad are the predicted output composition at the
	// minimal effort meeting the requirement.
	EstimatedGood float64
	EstimatedBad  float64
	EstimatedTime float64
	Reason        string // why the plan is infeasible, when it is
}

// Knobs are the IE knob settings explored by the optimizer.
var Knobs = []float64{0.4, 0.8}

// EvaluatePlans assesses the full two-relation plan space against a
// requirement using perfect-knowledge model parameters measured on the
// task's databases — the configuration of the paper's model-accuracy
// experiments.
func (t *Task) EvaluatePlans(req Requirement) ([]PlanEvaluation, error) {
	in, err := t.trueInputs("EvaluatePlans")
	if err != nil {
		return nil, err
	}
	plans := optimizer.Enumerate(Knobs)
	out := make([]PlanEvaluation, 0, len(plans))
	for _, p := range plans {
		ev, err := optimizer.Evaluate(p, in, optimizer.Requirement(req))
		if err != nil {
			return nil, err
		}
		out = append(out, evaluationOf(ev))
	}
	return out, nil
}

// trueInputs guards op to two-relation tasks and returns the
// perfect-knowledge optimizer inputs measured on the task's databases,
// searched with the task's plan-search worker count.
func (t *Task) trueInputs(op string) (*optimizer.Inputs, error) {
	if err := t.binaryOnly(op); err != nil {
		return nil, err
	}
	in, err := t.w.TrueInputs(Knobs)
	if err != nil {
		return nil, err
	}
	in.Workers = t.Workers
	return in, nil
}

// evaluationOf renders an optimizer evaluation in the facade's form.
func evaluationOf(ev optimizer.Eval) PlanEvaluation {
	return PlanEvaluation{
		Plan:          planFromSpec(ev.Plan),
		Feasible:      ev.Feasible,
		EstimatedGood: ev.Quality.Good,
		EstimatedBad:  ev.Quality.Bad,
		EstimatedTime: ev.Time,
		Reason:        ev.Reason,
	}
}

// Optimize picks the fastest two-relation plan predicted to meet the
// requirement, using perfect-knowledge parameters. Use Run for the
// end-to-end variant that estimates parameters on the fly, and
// OptimizeQuery for the arity-general form.
func (t *Task) Optimize(req Requirement) (PlanEvaluation, error) {
	in, err := t.trueInputs("Optimize")
	if err != nil {
		return PlanEvaluation{}, err
	}
	best, _, err := t.w.PlanMemo().Choose(optimizer.Enumerate(Knobs), in, optimizer.Requirement(req))
	if err != nil {
		return PlanEvaluation{}, err
	}
	return evaluationOf(best), nil
}

// AdaptiveCheckpoint is an opaque resumable snapshot of an interrupted
// adaptive run (see Task.Run and WithCheckpoint).
type AdaptiveCheckpoint struct {
	ck *optimizer.Checkpoint
}

// Figure regenerates one of the paper's evaluation figures ("fig9",
// "fig10", "fig11", "fig12") over a two-relation task and returns its text
// rendering (estimated vs actual series).
func (t *Task) Figure(id string) (string, error) {
	if err := t.binaryOnly("Figure"); err != nil {
		return "", err
	}
	switch id {
	case "fig9":
		f, err := experiments.Fig9(t.w)
		return render(f, err)
	case "fig10":
		f, err := experiments.Fig10(t.w)
		return render(f, err)
	case "fig11":
		f, err := experiments.Fig11(t.w)
		return render(f, err)
	case "fig12":
		f, err := experiments.Fig12(t.w)
		return render(f, err)
	default:
		return "", fmt.Errorf("joinopt: unknown figure %q (want fig9..fig12)", id)
	}
}

// TableII regenerates the paper's Table II over a two-relation task and
// returns its text rendering.
func (t *Task) TableII() (string, error) {
	if err := t.binaryOnly("TableII"); err != nil {
		return "", err
	}
	rows, err := experiments.Table2(t.w)
	if err != nil {
		return "", err
	}
	return experiments.RenderTable2(rows).String(), nil
}

func render(f interface{ String() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return f.String(), nil
}

// golds returns the task's gold sets in query order.
func (t *Task) golds() []*relation.Gold {
	if t.mw != nil {
		return t.mw.Golds()
	}
	return []*relation.Gold{t.w.DB[0].Gold(t.w.Task[0]), t.w.DB[1].Gold(t.w.Task[1])}
}

// GoldJoinSize returns the number of good join tuples derivable from the
// gold sets at full extraction — an upper bound on any plan's good output.
// On an n-ary task it counts the k-way good composition.
func (t *Task) GoldJoinSize() int {
	golds := t.golds()
	counts := make([]map[string]int, len(golds))
	for i, g := range golds {
		counts[i] = map[string]int{}
		for tup := range g.Good {
			counts[i][tup.A1]++
		}
	}
	total := 0
	for v, c := range counts[0] {
		prod := c
		for i := 1; i < len(counts); i++ {
			prod *= counts[i][v]
		}
		total += prod
	}
	return total
}

// Gold reports whether a two-relation join tuple is good per the gold sets
// (always false on n-ary tasks, whose tuples are not ⟨A, B, C⟩-shaped).
func (t *Task) Gold(jt JoinTuple) bool {
	if t.w == nil {
		return false
	}
	g1 := t.w.DB[0].Gold(t.w.Task[0])
	g2 := t.w.DB[1].Gold(t.w.Task[1])
	return g1.IsGood(relation.Tuple{A1: jt.A, A2: jt.B}) && g2.IsGood(relation.Tuple{A1: jt.A, A2: jt.C})
}

// OptimizeRobust is Optimize with a z-sigma robustness margin (§VI's
// robustness checking): a plan qualifies only if its sigma-discounted good
// output still reaches τg and its sigma-inflated bad output stays within
// τb. Larger sigma yields more conservative (and typically costlier) plans.
func (t *Task) OptimizeRobust(req Requirement, sigma float64) (PlanEvaluation, error) {
	in, err := t.trueInputs("OptimizeRobust")
	if err != nil {
		return PlanEvaluation{}, err
	}
	in.RobustSigma = sigma
	best, _, err := t.w.PlanMemo().Choose(optimizer.Enumerate(Knobs), in, optimizer.Requirement(req))
	if err != nil {
		return PlanEvaluation{}, err
	}
	return evaluationOf(best), nil
}

// OptimizePrecision picks the fastest plan delivering at least good tuples
// at output precision p — the paper's "minimum precision" preference,
// mapped onto the (τg, τb) model.
func (t *Task) OptimizePrecision(good int, p float64) (PlanEvaluation, Requirement, error) {
	return t.optimizePreferred(optimizer.MinPrecision{Good: good, P: p})
}

// OptimizeRecall picks the fastest plan delivering at least the given
// fraction of the achievable good join tuples — the paper's "minimum
// recall at the end of execution" preference.
func (t *Task) OptimizeRecall(recall float64) (PlanEvaluation, Requirement, error) {
	return t.optimizePreferred(optimizer.MinRecall{Recall: recall})
}

func (t *Task) optimizePreferred(pref optimizer.Preference) (PlanEvaluation, Requirement, error) {
	in, err := t.trueInputs("preference optimization")
	if err != nil {
		return PlanEvaluation{}, Requirement{}, err
	}
	best, req, err := optimizer.ChoosePreferred(optimizer.Enumerate(Knobs), in, pref)
	if err != nil {
		return PlanEvaluation{}, Requirement(req), err
	}
	return evaluationOf(best), Requirement(req), nil
}

// OptimizeWithinBudget maximizes the predicted good output within a hard
// execution-time budget — the paper's time-budget preference. maxBadPerGood
// bounds the output's bad-to-good ratio (≤ 0 disables the constraint).
func (t *Task) OptimizeWithinBudget(budget, maxBadPerGood float64) (PlanEvaluation, error) {
	in, err := t.trueInputs("OptimizeWithinBudget")
	if err != nil {
		return PlanEvaluation{}, err
	}
	best, err := optimizer.ChooseWithinBudget(optimizer.Enumerate(Knobs), in, budget, maxBadPerGood)
	if err != nil {
		return PlanEvaluation{}, err
	}
	return evaluationOf(best), nil
}

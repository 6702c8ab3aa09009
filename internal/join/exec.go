// Package join implements the three join execution algorithms of §IV over
// extracted relations: the Independent Join (IDJN), the Outer/Inner Join
// (OIJN), and the Zig-Zag Join (ZGJN). Executors advance in small steps so
// that drivers — the experiments and the quality-aware optimizer — can
// impose their own stopping policies (document budgets, estimated-quality
// thresholds, adaptive re-optimization).
package join

import (
	"context"
	"fmt"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/index"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
	"joinopt/internal/shard"
)

// Costs are the per-operation execution-time constants of one database side:
// tR (retrieve a document), tE (process a document with the IE system),
// tF (filter a document with the FS classifier), tQ (issue a query). The
// cost-model time of an execution is the paper's Time(S, D1, D2).
type Costs struct {
	TR float64
	TE float64
	TF float64
	TQ float64
}

// DefaultCosts reflect that extraction dominates retrieval, filtering is
// cheap, and querying costs roughly a retrieval round-trip.
var DefaultCosts = Costs{TR: 1, TE: 5, TF: 0.1, TQ: 2}

// Side bundles everything a join execution needs about one relation: the
// hosting database, its search interface, the tuned IE system's extraction
// table over the database, the gold set used to label output (evaluation
// only), and the per-operation costs.
type Side struct {
	DB    *corpus.DB
	Index *index.Index
	// Table resolves the extraction of DB's documents by document ID. It
	// is built once per database and shared by every execution over it.
	Table *extract.Table
	Theta float64
	Gold  *relation.Gold
	Costs Costs

	// Source, when set, replaces direct database reads on the document-fetch
	// path with a fallible source (e.g. a faults.FaultyDB); Retry governs how
	// fetch and pull failures are retried and how much document loss the
	// execution tolerates.
	Source DocSource
	Retry  RetryPolicy
}

// validate checks that the side is usable.
func (s *Side) validate(i int) error {
	if s.DB == nil || s.Table == nil {
		return fmt.Errorf("join: side %d missing database or IE system", i)
	}
	return nil
}

// State is the observable progress of a join execution: the two extracted
// relations, the labelled join result, the pair-composition quality counts,
// and the work/time accounting.
type State struct {
	R1, R2 *relation.Extracted
	Result *relation.JoinResult

	// GoodPairs is |Tgood⋈| under the paper's composition semantics:
	// Σ_a gr1(a)·gr2(a) over join values (Equation 1). BadPairs is the
	// complementary sum of mixed and bad-bad occurrence products.
	GoodPairs int
	BadPairs  int

	// Per-side work counters, indexed 0 and 1.
	DocsProcessed [2]int
	DocsRetrieved [2]int
	DocsFiltered  [2]int
	Queries       [2]int

	// YieldDocs counts processed documents that emitted at least one tuple;
	// EmissionHist[i][k] counts side-i documents that emitted exactly k
	// tuples. The on-the-fly parameter estimator consumes these.
	YieldDocs    [2]int
	EmissionHist [2][]int

	// Time is the cost-model execution time accumulated so far.
	Time float64

	// CacheSaved is the extraction time (tE) per side that cache hits made
	// free. Time + ΣCacheSaved is invariant under cache warmth: a replay
	// that hits the cache where the original run missed (or vice versa —
	// e.g. a resume against a disk-warmed cache after a restart) bills a
	// different Time but the identical invariant sum, which is what
	// Snapshot/Restore verify.
	CacheSaved [2]float64

	// Steps counts Executor.Step invocations — the replay coordinate of
	// Snapshot/Restore.
	Steps int

	// Failure accounting: DocsFailed counts documents lost after exhausting
	// retries, RetriesSpent the retries consumed, per side. Degraded is set
	// once any loss (failed documents, truncated or permanently failed
	// streams) makes the execution's view of the databases incomplete; the
	// optimizer corrects its quality estimates for it.
	DocsFailed   [2]int
	RetriesSpent [2]int
	Degraded     bool

	// Deadline, when positive, is the cost-model time at which the execution
	// stops gracefully (DeadlineHit records that it did). Retries respect it
	// too: a document is abandoned rather than retried past the deadline.
	Deadline    float64
	DeadlineHit bool

	// Trace and Metrics receive execution telemetry when set (see
	// internal/obs). Both are nil-safe and nil by default; the property
	// tests pin that a nil tracer leaves execution bit-identical, and the
	// overhead benchmarks pin the disabled path under 2%.
	Trace   *obs.Trace
	Metrics *obs.ExecMetrics

	// Pipeline, when set, overlaps document extraction with the execution:
	// executors announce upcoming documents for speculative extraction on
	// the worker pool and processDoc collects the results in stream order,
	// so tuples, accounting, traces, and fault streams stay bit-identical
	// to the nil (sequential) path. Its cache makes re-extraction of an
	// already-paid (document, θ) free: zero tE, counted as a cache hit.
	// shard.NewGroup decides whether an execution gets one.
	Pipeline *shard.Group

	totalPairs     int
	rels           [2]*relation.Extracted
	byVal          [2]map[string][]labeledTuple
	deadlineTraced bool
}

// ValueCounts returns the label-free observed occurrence counts s(a) of side
// i: the number of processed documents in which each join value was
// extracted. The parameter estimator works from these counts without any
// tuple verification.
func (st *State) ValueCounts(i int) map[string]int { return st.rels[i].ValueCounts() }

type labeledTuple struct {
	t    relation.Tuple
	good bool
}

// newState builds an empty state for two sides.
func newState(s1, s2 *Side) *State {
	schema1, schema2 := relation.Schema{Name: "R1"}, relation.Schema{Name: "R2"}
	if s1.Gold != nil {
		schema1 = s1.Gold.Schema
	}
	if s2.Gold != nil {
		schema2 = s2.Gold.Schema
	}
	st := &State{
		R1:     relation.NewExtracted(schema1, s1.Gold),
		R2:     relation.NewExtracted(schema2, s2.Gold),
		Result: relation.NewJoinResult(),
	}
	st.rels = [2]*relation.Extracted{st.R1, st.R2}
	st.byVal = [2]map[string][]labeledTuple{{}, {}}
	return st
}

// addTuple records one extracted occurrence on side i (0 or 1), updates the
// pair-composition counters incrementally, and joins the tuple against the
// other relation.
func (st *State) addTuple(i int, t relation.Tuple) {
	good := st.rels[i].Add(t)
	other := st.rels[1-i]
	a := t.A1

	otherGood := other.GoodOcc(a)
	otherTotal := otherGood + other.BadOcc(a)
	st.totalPairs += otherTotal
	if good {
		st.GoodPairs += otherGood
	}
	st.BadPairs = st.totalPairs - st.GoodPairs

	st.byVal[i][a] = append(st.byVal[i][a], labeledTuple{t: t, good: good})
	if st.Trace.Enabled() {
		st.Trace.EmitAt(st.Time, obs.KindTupleExtracted, i+1, map[string]any{"a": a, "good": good})
	}
	for _, lt := range st.byVal[1-i][a] {
		jt := relation.JoinTuple{A: a}
		if i == 0 {
			jt.B, jt.C = t.A2, lt.t.A2
		} else {
			jt.B, jt.C = lt.t.A2, t.A2
		}
		st.Result.Add(jt, good && lt.good)
		if st.Trace.Enabled() {
			st.Trace.EmitAt(st.Time, obs.KindTupleJoined, 0, map[string]any{"a": a, "good": good && lt.good})
		}
	}
	st.Metrics.Quality(st.GoodPairs, st.BadPairs)
}

// Executor is a stepwise join execution.
type Executor interface {
	// Step advances the execution by one unit of work. It returns false
	// when the execution is exhausted (no more documents or queries).
	Step() (bool, error)
	// State returns the live execution state.
	State() *State
	// Algorithm names the join algorithm (IDJN, OIJN, ZGJN).
	Algorithm() string
}

// StopFunc inspects the state after each step; returning true stops the run.
type StopFunc func(*State) bool

// Run advances the executor until it is exhausted, its deadline passes, or
// stop returns true. It returns the final state.
func Run(e Executor, stop StopFunc) (*State, error) {
	return RunCtx(context.Background(), e, stop)
}

// RunCtx is Run with cooperative cancellation: between steps it checks ctx
// and, once cancelled, returns the state reached so far together with
// ctx.Err(). The state remains checkpointable (State.Snapshot), so an
// interrupted run can be resumed by replay. Step errors are returned as
// *StepError, carrying the algorithm name and step count.
func RunCtx(ctx context.Context, e Executor, stop StopFunc) (*State, error) {
	st := e.State()
	for {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		default:
		}
		// Checked before stepping too, so an already-expired executor handed
		// to a fresh Run (e.g. after a checkpoint resume) does no extra work.
		if st.deadlineExpired() {
			st.traceDeadline(e.Algorithm())
			return st, nil
		}
		before := st.Time
		ok, err := e.Step()
		if err != nil {
			serr := &StepError{Algorithm: e.Algorithm(), Step: st.Steps, Err: err}
			if st.Trace.Enabled() {
				st.Trace.EmitAt(st.Time, obs.KindStepError, 0,
					map[string]any{"alg": serr.Algorithm, "step": serr.Step, "err": err.Error()})
			}
			return st, serr
		}
		st.Metrics.StepDone(e.Algorithm(), st.Time, st.Time-before)
		if st.Trace.Enabled() {
			st.Trace.EmitAt(st.Time, obs.KindStep, 0, map[string]any{"alg": e.Algorithm(), "step": st.Steps})
		}
		if !ok {
			return st, nil
		}
		if st.deadlineExpired() {
			st.traceDeadline(e.Algorithm())
			return st, nil
		}
		if stop != nil && stop(st) {
			return st, nil
		}
	}
}

// traceDeadline emits the deadline-hit event once per execution.
func (st *State) traceDeadline(alg string) {
	if st.Trace.Enabled() && !st.deadlineTraced {
		st.deadlineTraced = true
		st.Trace.EmitAt(st.Time, obs.KindDeadline, 0, map[string]any{"alg": alg, "deadline": st.Deadline})
	}
}

// chargeStrategy folds the growth of a retrieval strategy's counters since
// the last observation into the state's per-side accounting.
func (st *State) chargeStrategy(i int, c Costs, prev, now retrieval.Counts) {
	dRetr := now.Retrieved - prev.Retrieved
	dFilt := now.Filtered - prev.Filtered
	dQ := now.Queries - prev.Queries
	st.DocsRetrieved[i] += dRetr
	st.DocsFiltered[i] += dFilt
	st.Queries[i] += dQ
	st.Time += float64(dRetr)*c.TR + float64(dFilt)*c.TF + float64(dQ)*c.TQ
	st.Metrics.Retrieved(i, dRetr)
	st.Metrics.Filtered(i, dFilt)
	st.Metrics.Queries(i, dQ)
}

// processDoc fetches a document through the side's source (retrying under
// its policy), runs the IE system over it, and records the extracted
// tuples. It charges processing time and returns the tuples. A document
// lost to exhausted retries is skipped and accounted (nil tuples, nil
// error); the error is non-nil only when the failure budget aborts the
// execution.
//
// Extraction reads the side's table by document ID. With a pipeline engine
// attached, it resolves through the engine: cache hits are charged zero tE,
// and speculative worker results are collected here, on the stepping
// goroutine, in stream order. A document whose fetch returned modified text
// (a fault-truncated copy — detected by pointer inequality against the
// database's own record) bypasses the table and the engine entirely: its
// tuples are not the document's canonical extraction and must be neither
// served from nor inserted into the shared table or cache.
func processDoc(st *State, i int, s *Side, docID int) ([]relation.Tuple, error) {
	doc, ok, err := fetchDoc(st, i, s, docID)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	var tuples []relation.Tuple
	hit := false
	key := pipeline.Key{Side: i, DocID: docID, Theta: s.Theta}
	switch {
	case doc != s.DB.Doc(docID):
		// Abandon any speculation on the canonical document and extract
		// the copy inline.
		if st.Pipeline != nil {
			st.Pipeline.Drop(key)
		}
		tuples = s.Table.System().Extract(doc.Text, s.Theta)
	case st.Pipeline != nil:
		var evicted int
		tuples, hit, evicted = st.Pipeline.Resolve(key, func() []relation.Tuple {
			return s.Table.Extract(docID, s.Theta)
		})
		if st.Pipeline.HasCache() {
			if hit {
				st.Metrics.CacheHit(i)
			} else {
				st.Metrics.CacheMiss(i)
			}
			st.Metrics.CacheEvict(evicted)
		}
	default:
		tuples = s.Table.Extract(docID, s.Theta)
	}
	st.DocsProcessed[i]++
	if hit {
		st.CacheSaved[i] += s.Costs.TE
	} else {
		st.Time += s.Costs.TE
	}
	st.Metrics.Processed(i)
	if st.Trace.Enabled() {
		attrs := map[string]any{"doc": docID, "tuples": len(tuples)}
		if hit {
			attrs["cached"] = true
		}
		st.Trace.EmitAt(st.Time, obs.KindDocProcessed, i+1, attrs)
	}
	if len(tuples) > 0 {
		st.YieldDocs[i]++
	}
	for len(st.EmissionHist[i]) <= len(tuples) {
		st.EmissionHist[i] = append(st.EmissionHist[i], 0)
	}
	st.EmissionHist[i][len(tuples)]++
	for _, t := range tuples {
		st.addTuple(i, t)
	}
	return tuples, nil
}

// announceStreams feeds g the documents the live retrieval streams will
// hand out next (peeked without advancing them), interleaved by depth: the
// next unannounced document of the stream with the shortest announced
// prefix goes first. The square traversal resolves one document per stream
// per step, so this is resolution order, and no stream can fill the shared
// window while another starves. The peek lists are prefix-stable, and
// ahead[i] counts the prefix of stream i's that earlier steps announced. A
// window-full refusal ends the pass; the refused document is retried on a
// later step.
func announceStreams(g *shard.Group, sides []*Side, strats []retrieval.Strategy, done []bool, ahead []int) {
	n := g.Lookahead()
	if n == 0 {
		return
	}
	var buf [4][]int
	peeks := buf[:0]
	for i, s := range strats {
		var peek []int
		if !done[i] {
			peek = retrieval.PeekAhead(s, n)
		}
		peeks = append(peeks, peek)
		ahead[i] = min(ahead[i], len(peek))
	}
	for {
		next := -1
		for i, peek := range peeks {
			if ahead[i] < len(peek) && (next < 0 || ahead[i] < ahead[next]) {
				next = i
			}
		}
		if next < 0 || !g.Announce(pipeline.Key{Side: next, DocID: peeks[next][ahead[next]], Theta: sides[next].Theta}) {
			return
		}
		ahead[next]++
	}
}

// announce schedules speculative extraction of an upcoming side-i document.
// Callers announce only while Pipeline.Lookahead() is positive, which
// implies a frontend. It reports false when the engine's window refused the
// document — the caller should stop announcing for this step and retry from
// the same document later (see pipeline.Engine.Announce).
func (st *State) announce(i int, s *Side, docID int) bool {
	return st.Pipeline.Announce(pipeline.Key{Side: i, DocID: docID, Theta: s.Theta})
}

// BuildIndex constructs the search interface of a database with the given
// top-k cap.
func BuildIndex(db *corpus.DB, topK int) *index.Index {
	return index.New(db.Texts(), topK)
}

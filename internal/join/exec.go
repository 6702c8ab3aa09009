// Package join implements the three join execution algorithms of §IV over
// extracted relations: the Independent Join (IDJN), the Outer/Inner Join
// (OIJN), and the Zig-Zag Join (ZGJN). Executors advance in small steps so
// that drivers — the experiments and the quality-aware optimizer — can
// impose their own stopping policies (document budgets, estimated-quality
// thresholds, adaptive re-optimization).
package join

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/index"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
	"joinopt/internal/relation"
	"joinopt/internal/retrieval"
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
// table over the database, and the per-operation costs. The table also
// numbers and labels what the side extracts: output labels (evaluation
// only) come from its dictionary, which labels against the database's gold
// set, and every side of one execution must number join values in the
// same value dictionary.
type Side struct {
	DB    *corpus.DB
	Index *index.Index
	// Table resolves the extraction of DB's documents by document ID. It
	// is built once per database and shared by every execution over it.
	Table *extract.Table
	Theta float64
	Costs Costs

	// Source, when set, replaces direct database reads on the document-fetch
	// path with a fallible source (e.g. a faults.FaultyDB); Retry governs how
	// fetch and pull failures are retried and how much document loss the
	// execution tolerates.
	Source DocSource
	Retry  RetryPolicy
}

// validateSides checks that every side is usable and that all number
// join values in one dictionary, so a value has the same ID on every side.
func validateSides(sides ...*Side) error {
	for i, s := range sides {
		if s.DB == nil || s.Table == nil {
			return fmt.Errorf("join: side %d missing database or IE system", i+1)
		}
		if s.Table.Dict().Values() != sides[0].Table.Dict().Values() {
			return fmt.Errorf("join: side %d numbers join values in another dictionary than side 1", i+1)
		}
	}
	return nil
}

// State is the observable progress of a join execution: the two extracted
// relations, the pair-composition quality counts, the distinct join size,
// and the work/time accounting. The labelled join result is built only when
// asked for (JoinTuples).
type State struct {
	// R1 and R2 count the occurrences extracted on each side over the
	// sides' dictionary IDs.
	R1, R2 *relation.Extracted

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
	// pipeline.NewEngine decides whether an execution gets one.
	Pipeline *pipeline.Engine

	totalPairs     int
	joinSize       int
	rels           [2]*relation.Extracted
	entries        [2][]relation.Entry // per-side processDoc result buffers
	joined         [2][][]bool         // traced: per value ID, occurrence labels in arrival order
	deadlineTraced bool
}

// newState builds an empty state over the two sides' dictionaries.
func newState(d1, d2 *relation.Dict) *State {
	st := &State{R1: relation.NewExtracted(d1), R2: relation.NewExtracted(d2)}
	st.rels = [2]*relation.Extracted{st.R1, st.R2}
	return st
}

// addTuple records one extracted occurrence on side i (0 or 1) and updates
// the pair-composition counters and the distinct join size incrementally:
// a new distinct tuple joins every distinct tuple of the other side with its
// value. With a trace attached (before the first step), each occurrence
// emits one tuple.joined event per occurrence of its value already on the
// other side, in their arrival order.
func (st *State) addTuple(i int, e relation.Entry) {
	first := st.rels[i].Add(e)
	other := st.rels[1-i]
	otherGood, otherBad := other.Occ(e.Value)
	st.totalPairs += otherGood + otherBad
	if e.Good {
		st.GoodPairs += otherGood
	}
	st.BadPairs = st.totalPairs - st.GoodPairs
	if first {
		st.joinSize += other.Distinct(e.Value)
	}
	if st.Trace.Enabled() {
		a := e.Tuple.A1
		st.joined[i] = grow(st.joined[i], e.Value)
		st.joined[i][e.Value] = append(st.joined[i][e.Value], e.Good)
		st.Trace.EmitAt(st.Time, obs.KindTupleExtracted, i+1, map[string]any{"a": a, "good": e.Good})
		if int(e.Value) < len(st.joined[1-i]) {
			for _, good := range st.joined[1-i][e.Value] {
				st.Trace.EmitAt(st.Time, obs.KindTupleJoined, 0, map[string]any{"a": a, "good": e.Good && good})
			}
		}
	}
	st.Metrics.Quality(st.GoodPairs, st.BadPairs)
}

// grow extends s with zero values until index id is in range.
func grow[T any](s []T, id int32) []T {
	if n := int(id) + 1; n > len(s) {
		s = slices.Grow(s, n-len(s))[:n]
	}
	return s
}

// JoinTuples builds the labelled join result: one tuple ⟨A, B, C⟩ per pair
// of distinct extracted tuples ⟨A, B⟩ ∈ R1 and ⟨A, C⟩ ∈ R2, good iff both
// are good (§III-C, Figure 2), in (A, B, C) order.
func (st *State) JoinTuples() []relation.LabeledJoinTuple {
	right := map[int32][]relation.Entry{}
	for _, e := range st.R2.Entries() {
		right[e.Value] = append(right[e.Value], e)
	}
	out := make([]relation.LabeledJoinTuple, 0, st.joinSize)
	for _, e1 := range st.R1.Entries() {
		for _, e2 := range right[e1.Value] {
			jt := relation.JoinTuple{A: e1.Tuple.A1, B: e1.Tuple.A2, C: e2.Tuple.A2}
			out = append(out, relation.LabeledJoinTuple{Tuple: jt, Good: e1.Good && e2.Good})
		}
	}
	slices.SortFunc(out, func(x, y relation.LabeledJoinTuple) int {
		return cmp.Or(strings.Compare(x.Tuple.A, y.Tuple.A), strings.Compare(x.Tuple.B, y.Tuple.B), strings.Compare(x.Tuple.C, y.Tuple.C))
	})
	return out
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
// tuples. It charges processing time and returns the tuples' entries, valid
// until the next processDoc on side i. A document lost to exhausted retries
// is skipped and accounted (nil entries, nil error); the error is non-nil
// only when the failure budget aborts the execution.
//
// Extraction reads the side's table by document ID (see extractDoc). A
// document whose fetch returned modified text (a fault-truncated copy —
// detected by pointer inequality against the database's own record)
// bypasses the table and the engine entirely: its tuples are not the
// document's canonical extraction and must be neither served from nor
// inserted into the shared table or cache. The table's dictionary still
// numbers and labels them.
func processDoc(st *State, i int, s *Side, docID int) ([]relation.Entry, error) {
	doc, ok, err := fetchDoc(st, i, s, docID)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	entries, hit := st.entries[i][:0], false
	if doc != s.DB.Doc(docID) {
		// Abandon any speculation on the canonical document and extract
		// the copy inline.
		st.Pipeline.Drop(pipeline.Key{Side: i, DocID: docID, Theta: s.Theta})
		entries = s.Table.AppendTuples(entries, s.Table.System().Extract(doc.Text, s.Theta))
	} else {
		var evicted int
		entries, hit, evicted = extractDoc(st.Pipeline, i, s, docID, entries)
		if st.Pipeline.HasCache() {
			if hit {
				st.Metrics.CacheHit(i)
			} else {
				st.Metrics.CacheMiss(i)
			}
			st.Metrics.CacheEvict(evicted)
		}
	}
	st.entries[i] = entries
	st.DocsProcessed[i]++
	if hit {
		st.CacheSaved[i] += s.Costs.TE
	} else {
		st.Time += s.Costs.TE
	}
	st.Metrics.Processed(i)
	if st.Trace.Enabled() {
		attrs := map[string]any{"doc": docID, "tuples": len(entries)}
		if hit {
			attrs["cached"] = true
		}
		st.Trace.EmitAt(st.Time, obs.KindDocProcessed, i+1, attrs)
	}
	if len(entries) > 0 {
		st.YieldDocs[i]++
	}
	for len(st.EmissionHist[i]) <= len(entries) {
		st.EmissionHist[i] = append(st.EmissionHist[i], 0)
	}
	st.EmissionHist[i][len(entries)]++
	for _, e := range entries {
		st.addTuple(i, e)
	}
	return entries, nil
}

// extractDoc appends the entries of side i's canonical document docID at
// the side's θ to buf. Without an extraction frontend it reads the table
// directly, allocating nothing. With one it resolves through the engine:
// cache hits are free (hit), speculative worker results are collected here,
// on the stepping goroutine, in stream order, and the entries are read back
// from the table (see extract.Table.AppendResolved).
func extractDoc(e *pipeline.Engine, i int, s *Side, docID int, buf []relation.Entry) (entries []relation.Entry, hit bool, evicted int) {
	if e == nil {
		return s.Table.AppendEntries(buf, docID, s.Theta), false, 0
	}
	tuples, hit, evicted := e.Resolve(pipeline.Key{Side: i, DocID: docID, Theta: s.Theta}, func() []relation.Tuple {
		return s.Table.Extract(docID, s.Theta)
	})
	return s.Table.AppendResolved(buf, docID, s.Theta, tuples), hit, evicted
}

// announceStreams feeds e the documents the live retrieval streams will
// hand out next (peeked without advancing them), interleaved by depth: the
// next unannounced document of the stream with the shortest announced
// prefix goes first. The square traversal resolves one document per stream
// per step, so this is resolution order, and no stream can fill the shared
// window while another starves. The peek lists are prefix-stable, and
// ahead[i] counts the prefix of stream i's that earlier steps announced. A
// window-full refusal ends the pass; the refused document is retried on a
// later step.
func announceStreams(e *pipeline.Engine, sides []*Side, strats []retrieval.Strategy, done []bool, ahead []int) {
	n := e.Lookahead()
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
		if next < 0 || !e.Announce(pipeline.Key{Side: next, DocID: peeks[next][ahead[next]], Theta: sides[next].Theta}) {
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

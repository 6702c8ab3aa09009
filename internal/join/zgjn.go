package join

import (
	"fmt"

	"joinopt/internal/index"
	"joinopt/internal/obs"
)

// ZGJN is the Zig-Zag Join (§IV-C): both relations are reached purely by
// keyword querying, alternating roles. Starting from seed queries for R1,
// every new join value extracted for one relation becomes a query against
// the other relation's database, sweeping rows and columns of D1 × D2 in
// turn. The reach of the execution is the connected component of the seed
// in the zig-zag graph, bounded by the search interfaces' top-k caps.
type ZGJN struct {
	sides [2]*Side

	queues    [2][]string        // pending query values per side
	queued    [2]map[string]bool // values ever enqueued per side
	seen      [2]map[int]bool    // documents processed per side
	searchBuf []int              // reused query result buffer
	turn      int                // which side's queue to service next
	stalled   bool
	st        *State
}

// NewZGJN builds a Zig-Zag join seeded with join-attribute values to query
// against D1 (the paper's Qseed). Both sides need search interfaces.
func NewZGJN(s1, s2 *Side, seed []string) (*ZGJN, error) {
	if err := s1.validate(1); err != nil {
		return nil, err
	}
	if err := s2.validate(2); err != nil {
		return nil, err
	}
	if s1.Index == nil || s2.Index == nil {
		return nil, fmt.Errorf("join: ZGJN needs search interfaces on both sides")
	}
	if len(seed) == 0 {
		return nil, fmt.Errorf("join: ZGJN needs at least one seed query value")
	}
	e := &ZGJN{
		sides:  [2]*Side{s1, s2},
		queued: [2]map[string]bool{{}, {}},
		seen:   [2]map[int]bool{{}, {}},
	}
	e.st = newState(s1, s2)
	for _, v := range seed {
		e.enqueue(0, v)
	}
	return e, nil
}

// enqueue adds a query value for side i unless already issued there.
func (e *ZGJN) enqueue(i int, value string) {
	if e.queued[i][value] {
		return
	}
	e.queued[i][value] = true
	e.queues[i] = append(e.queues[i], value)
}

// Algorithm implements Executor.
func (e *ZGJN) Algorithm() string { return "ZGJN" }

// State implements Executor.
func (e *ZGJN) State() *State { return e.st }

// Step services one pending query: it issues the query against the current
// side's database, processes every unseen matching document, and enqueues
// the newly extracted join values as queries for the opposite side. It
// returns false when both queues are empty (the zig-zag has stalled or the
// component is exhausted).
func (e *ZGJN) Step() (bool, error) {
	e.st.Steps++
	if e.stalled {
		return false, nil
	}
	// Pick the next non-empty queue, preferring the alternation order.
	i := e.turn
	if len(e.queues[i]) == 0 {
		i = 1 - i
		if len(e.queues[i]) == 0 {
			e.stalled = true
			if e.st.Trace.Enabled() {
				e.st.Trace.EmitAt(e.st.Time, obs.KindSideExhausted, 0,
					map[string]any{"alg": "ZGJN", "stalled": true})
			}
			return false, nil
		}
	}
	value := e.queues[i][0]
	e.queues[i] = e.queues[i][1:]
	e.turn = 1 - i

	side := e.sides[i]
	e.st.Queries[i]++
	e.st.Time += side.Costs.TQ
	e.st.Metrics.Queries(i, 1)
	if e.st.Trace.Enabled() {
		e.st.Trace.EmitAt(e.st.Time, obs.KindQuery, i+1, map[string]any{"alg": "ZGJN", "value": value})
	}
	e.searchBuf = side.Index.SearchInto(index.QueryFromValue(value), e.searchBuf[:0])
	if e.st.Pipeline.Lookahead() > 0 {
		// The query's whole result batch is known up front — announce it so
		// workers extract ahead of the loop below. A window-full refusal
		// ends the pass: later documents would be refused too, and this
		// batch is resolved before the next query.
		for _, docID := range e.searchBuf {
			if !e.seen[i][docID] && !e.st.announce(i, side, docID) {
				break
			}
		}
	}
	for _, docID := range e.searchBuf {
		if e.seen[i][docID] {
			continue
		}
		e.seen[i][docID] = true
		e.st.DocsRetrieved[i]++
		e.st.Time += side.Costs.TR
		e.st.Metrics.Retrieved(i, 1)
		tuples, err := processDoc(e.st, i, side, docID)
		if err != nil {
			return false, err
		}
		for _, t := range tuples {
			e.enqueue(1-i, t.A1)
		}
	}
	e.st.Metrics.QueueDepth(0, len(e.queues[0]))
	e.st.Metrics.QueueDepth(1, len(e.queues[1]))
	return true, nil
}

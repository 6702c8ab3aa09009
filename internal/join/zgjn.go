package join

import (
	"fmt"

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

	queues  [2][]string // pending query values per side
	queued  [2][]bool   // by value ID: values ever enqueued per side
	seen    [2][]bool   // by document ID: documents processed per side
	turn    int         // which side's queue to service next
	stalled bool
	st      *State
}

// NewZGJN builds a Zig-Zag join seeded with join-attribute values to query
// against D1 (the paper's Qseed). Both sides need search interfaces.
func NewZGJN(s1, s2 *Side, seed []string) (*ZGJN, error) {
	if err := validateSides(s1, s2); err != nil {
		return nil, err
	}
	if s1.Index == nil || s2.Index == nil {
		return nil, fmt.Errorf("join: ZGJN needs search interfaces on both sides")
	}
	if len(seed) == 0 {
		return nil, fmt.Errorf("join: ZGJN needs at least one seed query value")
	}
	e := &ZGJN{
		sides: [2]*Side{s1, s2},
		seen:  [2][]bool{make([]bool, s1.DB.Size()), make([]bool, s2.DB.Size())},
	}
	e.st = newState(s1.Table.Dict(), s2.Table.Dict())
	values := s1.Table.Dict().Values()
	for _, v := range seed {
		e.enqueue(0, values.ID(v), v)
	}
	return e, nil
}

// enqueue adds a query value (ID id) for side i unless already issued there.
func (e *ZGJN) enqueue(i int, id int32, value string) {
	e.queued[i] = grow(e.queued[i], id)
	if e.queued[i][id] {
		return
	}
	e.queued[i][id] = true
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
	docs := side.Index.SearchValue(value)
	if e.st.Pipeline.Lookahead() > 0 {
		// The query's whole result batch is known up front — announce it so
		// workers extract ahead of the loop below. A window-full refusal
		// ends the pass: later documents would be refused too, and this
		// batch is resolved before the next query.
		for _, docID := range docs {
			if !e.seen[i][docID] && !e.st.announce(i, side, docID) {
				break
			}
		}
	}
	for _, docID := range docs {
		if e.seen[i][docID] {
			continue
		}
		e.seen[i][docID] = true
		e.st.DocsRetrieved[i]++
		e.st.Time += side.Costs.TR
		e.st.Metrics.Retrieved(i, 1)
		entries, err := processDoc(e.st, i, side, docID)
		if err != nil {
			return false, err
		}
		for _, t := range entries {
			e.enqueue(1-i, t.Value, t.Tuple.A1)
		}
	}
	e.st.Metrics.QueueDepth(0, len(e.queues[0]))
	e.st.Metrics.QueueDepth(1, len(e.queues[1]))
	return true, nil
}

package join

import (
	"fmt"

	"joinopt/internal/index"
	"joinopt/internal/obs"
	"joinopt/internal/retrieval"
)

// OIJN is the Outer/Inner Join (§IV-B): a nested-loops join where the outer
// relation is extracted with a document retrieval strategy and, for every
// new join-attribute value it produces, a keyword query is issued against
// the inner database's search interface to fetch the documents likely to
// contain the counterpart tuples. The inner reach is bounded by the search
// interface's top-k cap.
type OIJN struct {
	outer, inner *Side
	outerIdx     int // 0 or 1: which State side is the outer relation
	strat        retrieval.Strategy
	prev         retrieval.Counts

	queried   map[string]bool // join values already used as queries
	innerSeen map[int]bool    // inner documents already processed
	searchBuf []int           // reused inner-query result buffer
	ahead     int             // announced prefix of the outer peek list
	done      bool
	st        *State
}

// NewOIJN builds an Outer/Inner join. outerIdx selects which side (0 → s1,
// 1 → s2) plays the outer role; x is the outer document retrieval strategy.
// The inner side must have a search interface (Index).
func NewOIJN(s1, s2 *Side, outerIdx int, x retrieval.Strategy) (*OIJN, error) {
	if err := s1.validate(1); err != nil {
		return nil, err
	}
	if err := s2.validate(2); err != nil {
		return nil, err
	}
	if outerIdx != 0 && outerIdx != 1 {
		return nil, fmt.Errorf("join: OIJN outer index must be 0 or 1, got %d", outerIdx)
	}
	if x == nil {
		return nil, fmt.Errorf("join: OIJN needs an outer retrieval strategy")
	}
	sides := [2]*Side{s1, s2}
	inner := sides[1-outerIdx]
	if inner.Index == nil {
		return nil, fmt.Errorf("join: OIJN inner side needs a search interface")
	}
	e := &OIJN{
		outer:     sides[outerIdx],
		inner:     inner,
		outerIdx:  outerIdx,
		strat:     x,
		queried:   map[string]bool{},
		innerSeen: map[int]bool{},
	}
	e.st = newState(s1, s2)
	return e, nil
}

// Algorithm implements Executor.
func (e *OIJN) Algorithm() string { return "OIJN" }

// State implements Executor.
func (e *OIJN) State() *State { return e.st }

// Step retrieves and processes one outer document, then issues one keyword
// query per new outer join value, processing every unseen matching inner
// document. It returns false once the outer strategy is exhausted.
func (e *OIJN) Step() (bool, error) {
	e.st.Steps++
	if e.done {
		return false, nil
	}
	if n := e.st.Pipeline.Lookahead(); n > 0 {
		// Announce only the tail of the (prefix-stable) peek list past the
		// ahead cursor; stop at a window-full refusal and retry it later.
		// The outer stream peeks half the lookahead, so the window keeps
		// room for the inner batches its join values fetch.
		peek := retrieval.PeekAhead(e.strat, n/2)
		if e.ahead > len(peek) {
			e.ahead = len(peek)
		}
		for e.ahead < len(peek) {
			if !e.st.announce(e.outerIdx, e.outer, peek[e.ahead]) {
				break
			}
			e.ahead++
		}
	}
	id, ok, skip, err := pullDoc(e.st, e.outerIdx, e.outer, e.strat)
	now := e.strat.Counts()
	e.st.chargeStrategy(e.outerIdx, e.outer.Costs, e.prev, now)
	e.prev = now
	if err != nil {
		return false, err
	}
	if ok && e.ahead > 0 {
		// The pull consumed the head of the peek list.
		e.ahead--
	}
	if skip {
		return true, nil
	}
	if !ok {
		e.done = true
		if e.st.Trace.Enabled() {
			e.st.Trace.EmitAt(e.st.Time, obs.KindSideExhausted, e.outerIdx+1,
				map[string]any{"alg": "OIJN", "docs": e.st.DocsProcessed[e.outerIdx]})
		}
		return false, nil
	}
	tuples, err := processDoc(e.st, e.outerIdx, e.outer, id)
	if err != nil {
		return false, err
	}
	innerIdx := 1 - e.outerIdx
	for _, t := range tuples {
		a := t.A1
		if e.queried[a] {
			continue
		}
		e.queried[a] = true
		e.st.Queries[innerIdx]++
		e.st.Time += e.inner.Costs.TQ
		e.st.Metrics.Queries(innerIdx, 1)
		if e.st.Trace.Enabled() {
			e.st.Trace.EmitAt(e.st.Time, obs.KindQuery, innerIdx+1, map[string]any{"alg": "OIJN", "value": a})
		}
		e.searchBuf = e.inner.Index.SearchInto(index.QueryFromValue(a), e.searchBuf[:0])
		if e.st.Pipeline.Lookahead() > 0 {
			// The whole inner batch is known before any of it is processed —
			// announce it all so workers extract ahead of the loop below. A
			// window-full refusal ends the pass: later documents would be
			// refused too, and this batch is resolved before the next query.
			for _, docID := range e.searchBuf {
				if !e.innerSeen[docID] && !e.st.announce(innerIdx, e.inner, docID) {
					break
				}
			}
		}
		for _, docID := range e.searchBuf {
			if e.innerSeen[docID] {
				continue
			}
			e.innerSeen[docID] = true
			e.st.DocsRetrieved[innerIdx]++
			e.st.Time += e.inner.Costs.TR
			e.st.Metrics.Retrieved(innerIdx, 1)
			if _, err := processDoc(e.st, innerIdx, e.inner, docID); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

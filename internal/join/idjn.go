package join

import (
	"fmt"

	"joinopt/internal/obs"
	"joinopt/internal/retrieval"
)

// IDJN is the Independent Join (§IV-A): the two relations are extracted
// independently — each with its own document retrieval strategy — and joined
// as documents arrive, ripple-join style. The traversal of D1 × D2 is
// "square": one document from each database per step.
type IDJN struct {
	sides [2]*Side
	strat [2]retrieval.Strategy
	prev  [2]retrieval.Counts

	// ahead counts the already-announced prefix of each side's peek list, so
	// the per-step announce pass touches only newly exposed documents. Each
	// successful pull consumes the head of the peek list and shifts the
	// prefix down by one.
	ahead [2]int

	done [2]bool
	st   *State
}

// NewIDJN builds an Independent Join over two sides with their retrieval
// strategies.
func NewIDJN(s1, s2 *Side, x1, x2 retrieval.Strategy) (*IDJN, error) {
	if err := s1.validate(1); err != nil {
		return nil, err
	}
	if err := s2.validate(2); err != nil {
		return nil, err
	}
	if x1 == nil || x2 == nil {
		return nil, fmt.Errorf("join: IDJN needs a retrieval strategy for both sides")
	}
	e := &IDJN{
		sides: [2]*Side{s1, s2},
		strat: [2]retrieval.Strategy{x1, x2},
	}
	e.st = newState(s1, s2)
	return e, nil
}

// Algorithm implements Executor.
func (e *IDJN) Algorithm() string { return "IDJN" }

// State implements Executor.
func (e *IDJN) State() *State { return e.st }

// Step retrieves and processes the next document from each database. It
// returns false once both strategies are exhausted.
func (e *IDJN) Step() (bool, error) {
	e.st.Steps++
	if e.done[0] && e.done[1] {
		return false, nil
	}
	announceStreams(e.st.Pipeline, e.sides[:], e.strat[:], e.done[:], e.ahead[:])
	for i := 0; i < 2; i++ {
		if e.done[i] {
			continue
		}
		id, ok, skip, err := pullDoc(e.st, i, e.sides[i], e.strat[i])
		now := e.strat[i].Counts()
		e.st.chargeStrategy(i, e.sides[i].Costs, e.prev[i], now)
		e.prev[i] = now
		if err != nil {
			return false, err
		}
		if ok && e.ahead[i] > 0 {
			// The pull consumed the head of the peek list.
			e.ahead[i]--
		}
		if skip {
			continue
		}
		if !ok {
			e.done[i] = true
			if e.st.Trace.Enabled() {
				e.st.Trace.EmitAt(e.st.Time, obs.KindSideExhausted, i+1,
					map[string]any{"alg": "IDJN", "docs": e.st.DocsProcessed[i]})
			}
			continue
		}
		if _, err := processDoc(e.st, i, e.sides[i], id); err != nil {
			return false, err
		}
	}
	return !(e.done[0] && e.done[1]), nil
}

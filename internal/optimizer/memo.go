package optimizer

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"joinopt/internal/join"
	"joinopt/internal/model"
)

// memoSets bounds the input sets one Memo holds, and memoValues the
// quality and the time values each plan keeps per set. Over the 24 Table II
// rows on one 8k task the steady state needs 6 sets and about 20 values per
// plan; the value bound only stops a stream of distinct requirements from
// growing a set toward one value per effort.
const (
	memoSets   = 8
	memoValues = 512
)

// Memo is a task's plan-search memo: it serves two pure functions across
// the runs over one task.
//
//   - The §VI pilot, for an Env whose PurePilot is set: the estimated
//     inputs and the pilot's execution state, keyed by the knob settings
//     and the pilot options. Every other Env field is a fixed property of
//     the task, so every Env sharing a Memo must come from one task, and
//     an Env derived from one that replaces any of them clears PurePilot.
//   - Each plan's quality(e) and time(e) per input set, keyed by the exact
//     content of the Inputs fields plan evaluation reads (memoKey).
//
// Both are pure, and the memo changes no arithmetic, so every answer is the
// one an unmemoized search gives, bit for bit. The memo holds at most
// memoSets input sets and evicts the least recently used. A nil *Memo
// memoizes nothing. A Memo is safe for concurrent use.
type Memo struct {
	mu    sync.Mutex
	sets  []*memoSet // least recently used first
	pilot *memoPilot
}

// memoPilot is one memoized pilot. in and state are read-only: every run
// gets its own copy of in, and state is shared as Result.Pilot.
type memoPilot struct {
	thetas        []float64
	fraction, div float64 // Options.PilotFraction and StableDivergence
	in            *Inputs
	state         *join.State
}

// memoSet is one input set's evaluations: a private deep copy of the inputs
// and, per plan, the closures planFuncs built over it.
type memoSet struct {
	key []byte
	in  *Inputs

	mu    sync.Mutex
	plans map[PlanSpec]*memoPlan
}

// memoPlan is one plan's closures, with quality and time memoized per
// effort. mu serializes the plan's evaluations, so the closures and their
// maps are never used concurrently.
type memoPlan struct {
	mu     sync.Mutex
	built  bool
	fns    *planFns
	reason string
	err    error
}

// Choose is optimizer.Choose with plan evaluations served from the memo.
// Input sets the memo does not hold (see memoKey) are searched as Choose
// searches them.
func (m *Memo) Choose(plans []PlanSpec, in *Inputs, req Requirement) (Eval, []Eval, error) {
	return choose(plans, in, req, m.set(in))
}

// set returns in's entry, adding it (and evicting the least recently used
// entry when full) if it is new. It returns nil on a nil Memo and for input
// sets the memo does not hold.
func (m *Memo) set(in *Inputs) *memoSet {
	if m == nil {
		return nil
	}
	key := memoKey(in)
	if key == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.sets {
		if bytes.Equal(s.key, key) {
			copy(m.sets[i:], m.sets[i+1:])
			m.sets[len(m.sets)-1] = s
			return s
		}
	}
	if len(m.sets) == memoSets {
		copy(m.sets, m.sets[1:])
		m.sets = m.sets[:len(m.sets)-1]
	}
	s := &memoSet{key: key, in: cloneInputs(in), plans: map[PlanSpec]*memoPlan{}}
	m.sets = append(m.sets, s)
	return s
}

// evaluate is Evaluate(plan, in, req) served from the set; a nil set
// evaluates directly.
func (s *memoSet) evaluate(plan PlanSpec, in *Inputs, req Requirement) (Eval, error) {
	if s == nil {
		return Evaluate(plan, in, req)
	}
	s.mu.Lock()
	p := s.plans[plan]
	if p == nil {
		p = &memoPlan{}
		s.plans[plan] = p
	}
	s.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.built {
		fns, reason, err := planFuncs(plan, s.in)
		if fns != nil {
			quality := fns.quality
			if fns.qualityRobust != nil {
				quality = fns.qualityRobust
			}
			fns = &planFns{max: fns.max, quality: memoFn(quality, map[int]model.Quality{}),
				timeAt: memoFn(fns.timeAt, map[int]float64{}), effortPair: fns.effortPair}
		}
		p.built, p.fns, p.reason, p.err = true, fns, reason, err
	}
	if p.err != nil {
		return Eval{}, p.err
	}
	return evaluateFns(plan, req, p.fns, p.reason)
}

// memoFn returns f with its values kept in seen, up to memoValues of them;
// errors are not kept. Callers serialize its calls.
func memoFn[V any](f func(int) (V, error), seen map[int]V) func(int) (V, error) {
	return func(e int) (V, error) {
		if v, ok := seen[e]; ok {
			return v, nil
		}
		v, err := f(e)
		if err == nil && len(seen) < memoValues {
			seen[e] = v
		}
		return v, err
	}
}

// pilot is PilotEstimate(env, opts), served from env.Memo when env.PurePilot
// is set. A memoized pilot hands each run its own copy of the inputs (the
// run sets Workers on it) and the shared, read-only pilot state.
func (env *Env) pilot(opts Options) (*Inputs, *join.State, error) {
	m := env.Memo
	if m == nil || !env.PurePilot {
		return PilotEstimate(env, opts)
	}
	opts.defaults()
	m.mu.Lock()
	p := m.pilot
	m.mu.Unlock()
	if p == nil || !slices.Equal(p.thetas, env.Thetas) || p.fraction != opts.PilotFraction || p.div != opts.StableDivergence {
		in, st, err := PilotEstimate(env, opts)
		if err != nil {
			return nil, nil, err
		}
		p = &memoPilot{thetas: slices.Clone(env.Thetas), fraction: opts.PilotFraction, div: opts.StableDivergence, in: in, state: st}
		m.mu.Lock()
		m.pilot = p
		m.mu.Unlock()
	}
	in := *p.in
	return &in, p.state, nil
}

// memoKey encodes the content of every Inputs field plan evaluation reads:
// Thetas, all of P, Ov, Costs, CasualHits, Mentioned, SeedCount and
// RobustSigma, floats as their bits and every slice behind its length.
// Workers and ExecWorkers change no evaluation and stay out. It returns nil
// for input sets the memo does not hold: a nonzero CacheHitRate (the
// lifetime hit rate moves with every cache lookup, so such a set almost
// never repeats) or RectangleRatios (Evaluate's rectangle loop is not
// memoized; only tests set them).
func memoKey(in *Inputs) []byte {
	if in.CacheHitRate != ([2]float64{}) || len(in.RectangleRatios) > 0 {
		return nil
	}
	k := keyBuf(make([]byte, 0, 4096))
	k.floats(in.Thetas)
	for _, ps := range in.P {
		k.ints(len(ps))
		for _, p := range ps {
			if p == nil {
				k.ints(0)
				continue
			}
			k.ints(1, p.D, p.Dg, p.Db, p.Ag, p.Ab, p.TopK, len(p.AQG))
			for _, q := range p.AQG {
				k.ints(q.Hits, q.GoodHits, q.BadHits)
			}
			k.bits(p.TP, p.FP, p.BadInGoodFrac, p.Ctp, p.Cfp, p.QPrec)
			k.floats(p.GoodFreq)
			k.floats(p.BadFreq)
			k.floats(p.ValuesPerDoc)
		}
	}
	k.ints(in.Ov.Agg, in.Ov.Agb, in.Ov.Abg, in.Ov.Abb, in.Mentioned[0], in.Mentioned[1], in.SeedCount)
	for _, c := range in.Costs {
		k.bits(c.TR, c.TE, c.TF, c.TQ)
	}
	k.bits(in.CasualHits[0], in.CasualHits[1], in.RobustSigma)
	return k
}

// keyBuf accumulates a memo key as little-endian 64-bit words.
type keyBuf []byte

func (k *keyBuf) ints(vs ...int) {
	for _, v := range vs {
		*k = binary.LittleEndian.AppendUint64(*k, uint64(v))
	}
}

func (k *keyBuf) bits(vs ...float64) {
	for _, v := range vs {
		*k = binary.LittleEndian.AppendUint64(*k, math.Float64bits(v))
	}
}

func (k *keyBuf) floats(vs []float64) {
	k.ints(len(vs))
	k.bits(vs...)
}

// cloneInputs deep-copies the inputs plan evaluation reads, so a memoized
// set's closures cannot see a caller's later edits.
func cloneInputs(in *Inputs) *Inputs {
	c := *in
	c.Thetas = slices.Clone(in.Thetas)
	for side, ps := range in.P {
		c.P[side] = make([]*model.RelationParams, len(ps))
		for i, p := range ps {
			if p == nil {
				continue
			}
			q := *p
			q.GoodFreq = slices.Clone(p.GoodFreq)
			q.BadFreq = slices.Clone(p.BadFreq)
			q.AQG = slices.Clone(p.AQG)
			q.ValuesPerDoc = slices.Clone(p.ValuesPerDoc)
			c.P[side][i] = &q
		}
	}
	return &c
}

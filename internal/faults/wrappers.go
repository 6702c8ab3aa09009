package faults

import (
	"joinopt/internal/corpus"
	"joinopt/internal/obs"
	"joinopt/internal/retrieval"
)

// obsHooks is the observability attachment shared by the fault wrappers:
// every injected fault is counted on the metrics registry and, when tracing,
// emitted as a fault.injected event. Timestamps come from the trace clock,
// which the workload layer binds to the live executor's cost-model time.
type obsHooks struct {
	tr *obs.Trace
	m  *obs.ExecMetrics
}

// SetObs attaches a trace and metrics bundle; both may be nil.
func (h *obsHooks) SetObs(tr *obs.Trace, m *obs.ExecMetrics) {
	h.tr = tr
	h.m = m
}

// fault records one injected fault of op on 0-based side.
func (h *obsHooks) fault(op Op, side int, d decision) {
	h.m.Fault(side)
	if h.tr.Enabled() {
		h.tr.Emit(obs.KindFault, side+1,
			map[string]any{"op": string(op), "call": d.call, "permanent": d.permanent})
	}
}

// FaultyDB wraps a text database as a fallible document source: fetches can
// fail (transiently or permanently), stall (succeed with injected latency),
// or return truncated text — a slow interface cutting a download short. It
// implements the join package's DocSource.
type FaultyDB struct {
	obsHooks
	db    *corpus.DB
	side  int
	fetch injector
	trunc injector
}

// NewFaultyDB wraps db as side's document source under p.
func NewFaultyDB(db *corpus.DB, p *Profile, side int) *FaultyDB {
	return &FaultyDB{
		db:    db,
		side:  side,
		fetch: newInjector(p.Seed, OpFetch, side, p.Fetch[side]),
		trunc: newInjector(p.Seed, OpTruncate, side, p.Truncate[side]),
	}
}

// Size returns the number of documents in the underlying database.
func (f *FaultyDB) Size() int { return f.db.Size() }

// Fetch resolves a document, charging injected latency as cost-model time.
// A truncated document is returned successfully with its text cut in half —
// degraded, not failed — so extraction sees fewer mentions.
func (f *FaultyDB) Fetch(id int) (*corpus.Document, float64, error) {
	d := f.fetch.next()
	if d.fault {
		f.fault(OpFetch, f.side, d)
		return nil, d.cost, &Error{Op: OpFetch, Side: f.side, Call: d.call, Transient: !d.permanent}
	}
	doc := f.db.Doc(id)
	cost := d.cost
	if t := f.trunc.next(); t.fault {
		cost += t.cost
		doc = truncated(doc)
		f.trunc.counts.Truncated++
		f.fault(OpTruncate, f.side, t)
	}
	return doc, cost, nil
}

// Counts reports the injected behaviour so far: fetch faults and stalls
// plus truncations, with their combined extra cost.
func (f *FaultyDB) Counts() Counts {
	c := f.fetch.counts
	c.Truncated = f.trunc.counts.Truncated
	c.ExtraCost += f.trunc.counts.ExtraCost
	return c
}

// truncated returns a copy of d with its text cut to the first half, on a
// rune boundary.
func truncated(d *corpus.Document) *corpus.Document {
	cut := len(d.Text) / 2
	for cut > 0 && cut < len(d.Text) && d.Text[cut]&0xC0 == 0x80 {
		cut--
	}
	cp := *d
	cp.Text = d.Text[:cut]
	return &cp
}

// FaultyStrategy wraps a retrieval strategy with transient (or permanent)
// Next failures and stalls. The plain Strategy methods delegate untouched;
// injection happens only on the fallible path the executors pull through,
// and an injected fault fires before the underlying strategy advances, so a
// retried pull resumes exactly where the stream left off.
type FaultyStrategy struct {
	obsHooks
	s    retrieval.Strategy
	side int
	inj  injector
}

// NewFaultyStrategy wraps s as side's retrieval stream under p.
func NewFaultyStrategy(s retrieval.Strategy, p *Profile, side int) *FaultyStrategy {
	return &FaultyStrategy{s: s, side: side, inj: newInjector(p.Seed, OpNext, side, p.Next[side])}
}

// Next implements retrieval.Strategy (fault-free delegate).
func (f *FaultyStrategy) Next() (int, bool) { return f.s.Next() }

// Peek implements retrieval.Peeker when the wrapped strategy supports it.
// Peeks are fault-free: they perform no accountable work and never consume
// the injection stream, so pipelined and sequential runs see identical
// fault sequences.
func (f *FaultyStrategy) Peek(k int) []int { return retrieval.PeekAhead(f.s, k) }

// Kind implements retrieval.Strategy.
func (f *FaultyStrategy) Kind() retrieval.Kind { return f.s.Kind() }

// Counts implements retrieval.Strategy.
func (f *FaultyStrategy) Counts() retrieval.Counts { return f.s.Counts() }

// NextFallible implements retrieval.Fallible.
func (f *FaultyStrategy) NextFallible() (int, bool, float64, error) {
	d := f.inj.next()
	if d.fault {
		f.fault(OpNext, f.side, d)
		return 0, false, d.cost, &Error{Op: OpNext, Side: f.side, Call: d.call, Transient: !d.permanent}
	}
	id, ok, cost, err := retrieval.Pull(f.s)
	return id, ok, cost + d.cost, err
}

// FaultyClassifier fails a side's Filtered Scan classifier calls — a flaky
// model service. It makes no decisions: the scan reads those from its
// decision table after each successful call, and surfaces failed calls as
// retrieval failures so they flow into the executors' retry policy instead
// of silently mislabelling documents.
type FaultyClassifier struct {
	obsHooks
	side int
	inj  injector
}

// NewFaultyClassifier returns side's classifier-call faults under p.
func NewFaultyClassifier(p *Profile, side int) *FaultyClassifier {
	return &FaultyClassifier{side: side, inj: newInjector(p.Seed, OpClassify, side, p.Classify[side])}
}

// Call implements retrieval.ClassifierFaults: one draw from the side's
// classify stream.
func (f *FaultyClassifier) Call() (float64, error) {
	d := f.inj.next()
	if d.fault {
		f.fault(OpClassify, f.side, d)
		return d.cost, &Error{Op: OpClassify, Side: f.side, Call: d.call, Transient: !d.permanent}
	}
	return d.cost, nil
}

// Package obs is the zero-dependency observability subsystem: structured
// execution tracing (span/event records fanned out to pluggable sinks) and a
// registry of atomic counters, gauges, and histograms with expvar-style
// snapshots and a Prometheus-text encoder. Everything is nil-safe: a nil
// *Trace, *Registry, or any metric handle turns every call into a no-op, so
// instrumented code pays only a nil check when observability is off — the
// executor benchmarks pin that fast path under 2% overhead.
//
// Timestamps are cost-model times, never wall-clock, so a traced run is
// deterministic under a fixed seed: the NDJSON trace of a seeded execution is
// byte-identical across runs (the join package's golden test pins this).
package obs

import (
	"sync"
	"sync/atomic"
)

// Kind names an event type. The taxonomy covers the execution lifecycle
// (run/pilot/plan decisions), per-step executor progress, the document and
// tuple flow, and the failure path (retries, injected faults, deadlines).
type Kind string

// The event taxonomy (see DESIGN.md §5 for the attribute schema of each).
const (
	KindRunStart        Kind = "run.start"        // facade Run entered
	KindRunEnd          Kind = "run.end"          // facade Run finished
	KindPilotDone       Kind = "pilot.done"       // estimation pilot completed
	KindPlanChosen      Kind = "plan.chosen"      // optimizer picked a plan
	KindPlanSwitch      Kind = "plan.switch"      // adaptive run switched plans
	KindCheckpoint      Kind = "checkpoint"       // adaptive re-optimization point
	KindCheckpointError Kind = "checkpoint.error" // non-fatal Choose failure at a checkpoint
	KindStep            Kind = "exec.step"        // one executor step completed
	KindDocProcessed    Kind = "doc.processed"    // document run through the IE system
	KindDocFailed       Kind = "doc.failed"       // document lost after exhausted retries
	KindTupleExtracted  Kind = "tuple.extracted"  // one occurrence added to a relation
	KindTupleJoined     Kind = "tuple.joined"     // one join output tuple produced
	KindRetry           Kind = "retry"            // transient substrate failure retried
	KindQuery           Kind = "query"            // retrieval-strategy query issued
	KindFault           Kind = "fault.injected"   // fault injector fired
	KindDeadline        Kind = "deadline.hit"     // cost-model deadline stopped the run
	KindStepError       Kind = "step.error"       // executor step failed fatally
	KindSideExhausted   Kind = "side.exhausted"   // one side's retrieval stream ended
)

// Event is one structured trace record. T is cost-model time (deterministic
// under a fixed seed), Side is 1-based (0 = not side-specific), and Attrs
// carries the kind-specific fields. AppendJSON is its one encoder, used by
// every sink that serializes events, and it is deterministic: struct fields
// in order, attr keys sorted.
type Event struct {
	Seq   uint64         `json:"seq"`
	T     float64        `json:"t"`
	Kind  Kind           `json:"kind"`
	Side  int            `json:"side,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Tracer consumes events. Implementations in this package: *Ring (in-memory
// ring buffer) and *NDJSON (newline-delimited JSON stream); multiple sinks
// can back one Trace.
type Tracer interface {
	Emit(Event)
}

// Trace is the emitting front end threaded through execution: it stamps
// sequence numbers, resolves timestamps, and fans events out to its sinks.
// A nil *Trace is the disabled state — every method is a nil-safe no-op, and
// instrumented code guards attribute construction with Enabled().
type Trace struct {
	sinks []Tracer
	seq   atomic.Uint64

	mu    sync.Mutex
	clock func() float64
}

// New builds a Trace fanning out to the given sinks. With no sinks it
// returns nil — the disabled tracer — so callers can wire optional sinks
// unconditionally.
func New(sinks ...Tracer) *Trace {
	live := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return &Trace{sinks: live}
}

// Enabled reports whether events are being recorded. Instrumented code
// checks it before building attribute maps, keeping the disabled path
// allocation-free.
func (t *Trace) Enabled() bool { return t != nil }

// SetClock installs the cost-model clock used by Emit for instrumentation
// sites that don't carry an execution state (retrieval strategies, fault
// injectors). Executors re-point it at their own state on construction.
func (t *Trace) SetClock(fn func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = fn
	t.mu.Unlock()
}

// EmitAt records one event at an explicit cost-model time.
func (t *Trace) EmitAt(at float64, kind Kind, side int, attrs map[string]any) {
	if t == nil {
		return
	}
	e := Event{Seq: t.seq.Add(1), T: at, Kind: kind, Side: side, Attrs: attrs}
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Emit records one event stamped with the installed clock (0 when none).
func (t *Trace) Emit(kind Kind, side int, attrs map[string]any) {
	if t == nil {
		return
	}
	var at float64
	t.mu.Lock()
	if t.clock != nil {
		at = t.clock()
	}
	t.mu.Unlock()
	t.EmitAt(at, kind, side, attrs)
}

package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"joinopt"
)

// span is one timed interval of a traced run. Spans of one operation share
// Op, the ID of the operation's root span; Parent is 0 on roots. A direct
// layer call made outside any operation is a root of its own.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's nanosecond clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.epoch)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

// add records a span and returns its ID; op 0 makes the span a root.
func (t *tracer) add(op, parent int64, name string, start, end int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// call times fn as a span of its own outside any operation.
func (t *tracer) call(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := t.now()
	fn()
	t.add(0, 0, name, start, t.now())
}

// selfTimes sums each span name's self time (duration minus the part its
// children cover) in nanoseconds, and counts the spans of each name.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start) - covered(s, children[s.ID])
		count[s.Name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var sum, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return float64(sum)
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// boundary is a protocol event that delimits a layer's span, stamped with
// the wall clock when it arrived and when the event before it arrived.
type boundary struct {
	kind      string
	at, prior int64
}

// boundaryKinds are the events that open or close a layer span.
var boundaryKinds = map[string]bool{
	"run.start": true, "pilot.done": true, "plan.chosen": true, "plan.switch": true,
	"checkpoint": true, "checkpoint.error": true, "run.end": true,
}

// stamper turns one operation's event stream into wall-clock boundaries.
// It is the benchmark's joinopt.TraceSink for library runs; the fleet
// client feeds it the kinds it reads off a job's /events stream.
type stamper struct {
	tr     *tracer
	mu     sync.Mutex
	events int
	last   int64
	bounds []boundary
	chosen int
}

func (s *stamper) Emit(e joinopt.TraceEvent) { s.observe(string(e.Kind)) }

func (s *stamper) observe(kind string) {
	now := s.tr.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	if boundaryKinds[kind] {
		s.bounds = append(s.bounds, boundary{kind: kind, at: now, prior: s.last})
		if kind == "plan.chosen" {
			s.chosen++
		}
	}
	s.last = now
}

// spans derives the operation's layer spans from its boundaries:
//
//	run.start → last pilot event            join.pilot
//	last pilot event → pilot.done           estimate.estimate
//	pilot.done or checkpoint → decision     optimizer.choose
//	decision → next checkpoint or run.end   join.exec, with the checkpoint's
//	                                        re-estimation (last event →
//	                                        checkpoint) as an estimate child
//
// A decision is plan.chosen, plan.switch or checkpoint.error.
func (s *stamper) spans(op int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.bounds) == 0 || s.bounds[0].kind != "run.start" {
		return
	}
	tr := s.tr
	cur := s.bounds[0].at
	choosing, executing := false, false
	for _, b := range s.bounds[1:] {
		switch b.kind {
		case "pilot.done":
			tr.add(op, op, "join.pilot", cur, b.prior)
			tr.add(op, op, "estimate.estimate", b.prior, b.at)
			cur, choosing = b.at, true
		case "plan.chosen", "plan.switch", "checkpoint.error":
			if choosing {
				tr.add(op, op, "optimizer.choose", cur, b.at)
				choosing = false
			}
			if !executing {
				cur, executing = b.at, true
			}
		case "checkpoint":
			if executing {
				id := tr.add(op, op, "join.exec", cur, b.at)
				tr.add(op, id, "estimate.estimate", b.prior, b.at)
			}
			cur, choosing, executing = b.at, true, false
		case "run.end":
			if executing {
				tr.add(op, op, "join.exec", cur, b.at)
			}
		}
	}
}

// eventKind extracts the "kind" field from one NDJSON trace line without
// decoding the whole event.
func eventKind(line []byte) string {
	const key = `"kind":"`
	s := string(line)
	i := strings.Index(s, key)
	if i < 0 {
		return ""
	}
	s = s[i+len(key):]
	if j := strings.IndexByte(s, '"'); j >= 0 {
		return s[:j]
	}
	return ""
}

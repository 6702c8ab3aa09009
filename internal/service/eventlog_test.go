//go:build !race

// Allocation budgets are pinned on the normal build, as in the classifier's
// alloc test: a race-enabled build runs an instrumented runtime, and the
// budget should not depend on what that instrumentation allocates.

package service

import (
	"bytes"
	"math"
	"testing"

	"joinopt/internal/obs"
)

// TestEventLogEmitAllocs: with no follower waiting, appending an event to
// a job's log encodes it into the log's buffer and allocates nothing but
// that buffer's amortized growth. Close clips the buffer to the bytes it
// holds, which are exactly what an obs.NDJSON sink writes.
func TestEventLogEmitAllocs(t *testing.T) {
	const runs = 1000
	e := obs.Event{Seq: 7, T: 26.471002753586795, Kind: obs.KindDocProcessed, Side: 2,
		Attrs: map[string]any{"doc": 41, "tuples": 1, "cached": true}}
	l := newEventLog()
	if avg := testing.AllocsPerRun(runs, func() { l.Emit(e) }); avg != 0 {
		t.Errorf("eventLog.Emit: %v allocations per event, want 0", avg)
	}
	l.Close()

	var want bytes.Buffer
	sink := obs.NewNDJSON(&want)
	for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up call
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != runs+1 || !bytes.Equal(l.buf, want.Bytes()) {
		t.Fatalf("log holds %d events in %d bytes, want %d in %d", l.Len(), len(l.buf), runs+1, want.Len())
	}
	if cap(l.buf) != len(l.buf) {
		t.Errorf("closed log keeps %d bytes of capacity for %d bytes of events", cap(l.buf), len(l.buf))
	}
}

// TestEventLogStopsAtUnencodableEvent: an event json.Marshal would reject
// ends the log's bytes where an obs.NDJSON trace ends, while the event
// count keeps counting every event the run emitted.
func TestEventLogStopsAtUnencodableEvent(t *testing.T) {
	l := newEventLog()
	ok := obs.Event{Seq: 1, Kind: obs.KindStep}
	l.Emit(ok)
	l.Emit(obs.Event{Seq: 2, Kind: obs.KindStep, Attrs: map[string]any{"t": math.Inf(1)}})
	l.Emit(obs.Event{Seq: 3, Kind: obs.KindStep})
	l.Close()
	line, _ := ok.AppendJSON(nil)
	if want := append(line, '\n'); l.Len() != 3 || !bytes.Equal(l.buf, want) {
		t.Fatalf("log holds %d events in %q, want 3 in %q", l.Len(), l.buf, want)
	}
}

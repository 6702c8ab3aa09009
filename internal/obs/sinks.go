package obs

import (
	"bufio"
	"io"
	"os"
	"sync"
)

// Ring is an in-memory trace sink keeping the most recent events in a
// fixed-capacity ring buffer — the always-on flight recorder: cheap enough
// to leave attached, inspectable after the fact.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total uint64
}

// DefaultRingCapacity bounds a Ring built with a non-positive capacity.
const DefaultRingCapacity = 4096

// NewRing builds a ring sink holding up to capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit implements Tracer.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events ever emitted, including overwritten
// ones.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// NDJSON is a trace sink writing each event as one JSON line to a buffered
// stream — the durable trace format consumed by the -trace flag and the
// golden-file tests. Write errors are sticky and surfaced by Err and Close.
type NDJSON struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewNDJSON builds an NDJSON sink over w.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{bw: bufio.NewWriter(w)}
}

// CreateNDJSON creates (truncating) an NDJSON trace file at path; Close
// flushes and closes it.
func CreateNDJSON(path string) (*NDJSON, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := NewNDJSON(f)
	s.c = f
	return s, nil
}

// Emit implements Tracer.
func (s *NDJSON) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := e.AppendJSON(s.bw.AvailableBuffer())
	if err != nil {
		s.err = err
		return
	}
	_, s.err = s.bw.Write(append(b, '\n'))
}

// Flush drains the write buffer.
func (s *NDJSON) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.bw.Flush()
	}
	return s.err
}

// Err returns the first write error, if any.
func (s *NDJSON) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes, closes the underlying file (when the sink owns one), and
// returns the first error observed over the sink's lifetime.
func (s *NDJSON) Close() error {
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
		s.c = nil
	}
	return err
}

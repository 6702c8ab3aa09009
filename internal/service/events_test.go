package service_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"joinopt"
	"joinopt/internal/obs"
	"joinopt/internal/service"
)

// hold is a Tracer that blocks the job emitting event seq until released.
// The job's event log is the first sink, so by then the log holds events
// 1..seq.
type hold struct {
	seq      uint64
	entered  chan struct{}
	release  chan struct{}
	released sync.Once
}

func newHold(seq uint64) *hold {
	return &hold{seq: seq, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *hold) Emit(e obs.Event) {
	if e.Seq == h.seq {
		close(h.entered)
		<-h.release
	}
}

// Wait blocks until the job is held, failing the test if it never is.
func (h *hold) Wait(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(time.Minute):
		t.Fatalf("no event %d within a minute", h.seq)
	}
}

func (h *hold) Release() { h.released.Do(func() { close(h.release) }) }

// holds fans events out to several holds.
type holds []*hold

func (hs holds) Emit(e obs.Event) {
	for _, h := range hs {
		h.Emit(e)
	}
}

// readLines reads n lines from br into buf, failing the test if they do
// not arrive within a minute.
func readLines(t *testing.T, br *bufio.Reader, n int, buf *bytes.Buffer) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			line, err := br.ReadBytes('\n')
			buf.Write(line)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatalf("%d lines did not arrive within a minute", n)
	}
}

// TestEventStreamFollowers pins the event log's stream contract: three
// /events subscribers of one cache-free adaptive job — attached at
// submission, mid-run, and after the job finished — read identical bytes,
// equal to an in-process NDJSON trace of the same run. The mid-run
// subscriber must also receive live appends while the job is still
// running, not only when it ends.
func TestEventStreamFollowers(t *testing.T) {
	const attachAt, liveTo = 40, 80
	spec := testSpec
	spec.CacheBytes = -1 // cache warmth annotates the trace; keep it cold
	attach, live := newHold(attachAt), newHold(liveTo)
	e := newEnv(t, service.Options{TraceSink: holds{attach, live}})
	// Registered after newEnv, so they run first should the test stop
	// early: the env's server cannot close while a held job blocks its
	// /events handlers.
	t.Cleanup(attach.Release)
	t.Cleanup(live.Release)

	st, _ := e.submit(t, service.JobRequest{Workload: spec, TauG: testTauG, TauB: testTauB, Workers: 1}, http.StatusAccepted)
	url := e.srv.URL + "/v1/jobs/" + st.ID + "/events"

	atSubmit := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			t.Error(err)
			atSubmit <- nil
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		atSubmit <- b
	}()

	attach.Wait(t)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var midRun bytes.Buffer
	readLines(t, br, attachAt, &midRun) // the replay, while the job is held
	attach.Release()
	live.Wait(t)
	readLines(t, br, liveTo-attachAt, &midRun) // live appends, job held again
	live.Release()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	midRun.Write(rest)

	if fin := e.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	finished := e.events(t, st.ID)

	tk, err := joinopt.NewTaskPair(joinopt.WorkloadParams{NumDocs: spec.NumDocs, Seed: spec.Seed}, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	sink := obs.NewNDJSON(&ref)
	if _, err := tk.Run(context.Background(), joinopt.Requirement{TauG: testTauG, TauB: testTauB},
		joinopt.WithWorkers(1), joinopt.WithTracer(joinopt.NewTrace(sink))); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(ref.Bytes(), []byte("\n")); n <= liveTo {
		t.Fatalf("the run emits %d events; the mid-run subscriber must follow it before the last", n)
	}

	for name, got := range map[string][]byte{
		"attached at submission": <-atSubmit,
		"attached mid-run":       midRun.Bytes(),
		"attached after finish":  finished,
	} {
		if !bytes.Equal(got, ref.Bytes()) {
			t.Errorf("subscriber %s read %d bytes, not the %d-byte in-process trace", name, len(got), ref.Len())
		}
	}
}

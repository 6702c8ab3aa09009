package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"joinopt/internal/durable"
	"joinopt/internal/obs"
)

// holdFirstEvent is a TraceSink that blocks the first event it sees until
// release closes, so a one-worker service keeps its worker busy and every
// later job queued.
type holdFirstEvent struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (h *holdFirstEvent) Emit(obs.Event) {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
}

// TestCancelQueuedJobCommitsBeforePublishing: a client that has seen a
// queued job canceled must never see a restart re-queue it. The test holds
// the job's event log lock, so the cancellation stops where it closes the
// log, after the job reads as canceled. It cuts the power there (freezes
// the store), and a store recovered from the same directory must already
// hold the cancellation.
func TestCancelQueuedJobCommitsBeforePublishing(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hold := &holdFirstEvent{entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Options{Workers: 1, Durable: st, Recovered: rec, TraceSink: hold})
	spec := WorkloadSpec{NumDocs: 400, Seed: 7}
	if _, err := s.Submit(JobRequest{Workload: spec, TauG: 8, TauB: 200}); err != nil {
		t.Fatal(err)
	}
	<-hold.entered
	queued, err := s.Submit(JobRequest{Mode: ModeOptimize, Workload: spec, TauG: 8, TauB: 200})
	if err != nil {
		t.Fatal(err)
	}

	queued.events.mu.Lock()
	canceled := make(chan error)
	go func() {
		_, err := s.Cancel(queued.ID)
		canceled <- err
	}()
	// Status would wait on the held log lock; read the state alone.
	state := func() string {
		queued.mu.Lock()
		defer queued.mu.Unlock()
		return queued.state
	}
	for deadline := time.Now().Add(30 * time.Second); state() != StateCanceled; {
		if time.Now().After(deadline) {
			queued.events.mu.Unlock()
			t.Fatalf("job still %s after Cancel", state())
		}
		time.Sleep(time.Millisecond)
	}
	st.Freeze()
	queued.events.mu.Unlock()
	if err := <-canceled; err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
	st.Close()

	st2, rec2, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, rj := range rec2.Jobs {
		if rj.ID == queued.ID {
			if rj.State != StateCanceled {
				t.Fatalf("restart recovers the canceled job with state %q, want %q", rj.State, StateCanceled)
			}
			return
		}
	}
	t.Fatalf("job %s missing from the recovered journal", queued.ID)
}

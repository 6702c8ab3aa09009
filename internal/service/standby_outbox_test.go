package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt"
	"joinopt/internal/cluster"
	"joinopt/internal/obs"
)

// originSelf is the advertised URL of the origin replicas these tests
// build; nothing listens there, and nothing needs to.
const originSelf = "http://127.0.0.1:1"

// newOrigin builds a replica in a two-member cluster with the server at
// peerURL. Its cluster is never started, so the peer sees only the traffic
// a test makes, and its client times out late enough that no post in these
// tests is given up on.
func newOrigin(t *testing.T, peerURL string) *Service {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Self: originSelf, Peers: []string{originSelf, peerURL}, ProbeTimeout: 10 * time.Second,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: 1, Cluster: cl, Logf: t.Logf})
}

// TestStandbyPostsReuseConnections: sendStandby reads each response to EOF,
// so consecutive posts to one peer share the cluster client's connection.
// Closed unread, every response costs the next post a fresh TCP connection.
func TestStandbyPostsReuseConnections(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(nil)
	peerURL := "http://" + ts.Listener.Addr().String()
	peerCl, err := cluster.New(cluster.Config{Self: peerURL, Peers: []string{originSelf, peerURL}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	peer := New(Options{Workers: 1, Cluster: peerCl})
	ts.Config.Handler = peer.Handler()
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	origin := newOrigin(t, peerURL)
	self := origin.opts.Cluster.SelfName()
	reqWire, err := json.Marshal(JobRequest{TauG: 4, TauB: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("%s-j%06d", self, i+1)
		for _, w := range []standbyWire{
			{ID: id, Origin: self, Request: reqWire},
			{ID: id, Origin: self, Done: true},
		} {
			if err := origin.sendStandby(peerURL, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := peer.StandbyCount(); n != 0 {
		t.Errorf("peer holds %d standby entries after every hold was retired, want 0", n)
	}
	if n := conns.Load(); n > 2 {
		t.Errorf("50 standby posts opened %d connections, want at most 2", n)
	}
}

// standbyRecorder is a peer that records every standby message it receives,
// by job, and stalls on some arrivals, as its seeded generator decides.
type standbyRecorder struct {
	mu    sync.Mutex
	rng   *rand.Rand
	byJob map[string][]int // checkpoint markers received, in order; -1 is a done
}

func (r *standbyRecorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var msg standbyWire
	if err := json.NewDecoder(req.Body).Decode(&msg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	mark := -1
	if !msg.Done {
		n, err := strconv.Atoi(string(msg.Checkpoint))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mark = n
	}
	r.mu.Lock()
	r.byJob[msg.ID] = append(r.byJob[msg.ID], mark)
	var stall time.Duration
	if r.rng.Intn(3) == 0 {
		stall = time.Duration(1+r.rng.Intn(3)) * time.Millisecond
	}
	r.mu.Unlock()
	time.Sleep(stall)
	w.Write([]byte(`{"ok":true}`))
}

// TestStandbyOutboxOrder pins the outbox's contract on seeded random
// sequences of checkpoint and done messages over a few jobs, sent to a peer
// that stalls at seeded points. For each job the peer receives a
// subsequence of the messages queued, in order, never a checkpoint after
// the job's done, and always the last message queued; and the queue never
// holds more than one of a job's messages.
func TestStandbyOutboxOrder(t *testing.T) {
	rec := &standbyRecorder{}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	origin := newOrigin(t, ts.URL)
	o := origin.outbox

	coalesced, delivered := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rec.mu.Lock()
		rec.rng = rand.New(rand.NewSource(seed + 1000))
		rec.byJob = map[string][]int{}
		rec.mu.Unlock()

		// Each job queues a few checkpoints, and most then queue a done;
		// the jobs' messages interleave at random.
		const jobs = 3
		var plans [jobs][]int
		next := 0
		for j := range plans {
			for k := rng.Intn(6); k > 0; k-- {
				plans[j] = append(plans[j], next)
				next++
			}
			if rng.Intn(4) != 0 {
				plans[j] = append(plans[j], -1)
			}
		}
		var sent [jobs]int
		for {
			var ready []int
			for j := range plans {
				if sent[j] < len(plans[j]) {
					ready = append(ready, j)
				}
			}
			if len(ready) == 0 {
				break
			}
			j := ready[rng.Intn(len(ready))]
			w := standbyWire{ID: fmt.Sprintf("n0-j%06d", j), Origin: "n0", Request: json.RawMessage(`{}`)}
			if mark := plans[j][sent[j]]; mark < 0 {
				w = standbyWire{ID: w.ID, Origin: w.Origin, Done: true}
			} else {
				w.Checkpoint = json.RawMessage(strconv.Itoa(mark))
			}
			sent[j]++
			o.enqueue(ts.URL, w)

			o.mu.Lock()
			queued := map[string]int{}
			if q := o.peers[ts.URL]; q != nil {
				for _, p := range q.pending {
					queued[p.ID]++
				}
			}
			o.mu.Unlock()
			for id, n := range queued {
				if n > 1 {
					t.Fatalf("seed %d: %d messages of %s queued at once", seed, n, id)
				}
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := o.drained(ctx)
		cancel()
		if err != nil {
			t.Fatalf("seed %d: outbox did not drain: %v", seed, err)
		}

		rec.mu.Lock()
		for j, plan := range plans {
			id := fmt.Sprintf("n0-j%06d", j)
			got := rec.byJob[id]
			if len(plan) == 0 {
				if len(got) != 0 {
					t.Errorf("seed %d: %s queued nothing but the peer received %v", seed, id, got)
				}
				continue
			}
			// Subsequence, in order.
			k := 0
			for _, m := range got {
				for k < len(plan) && plan[k] != m {
					k++
				}
				if k == len(plan) {
					t.Errorf("seed %d: %s received %v, not an ordered subsequence of %v", seed, id, got, plan)
					break
				}
				k++
			}
			for i, m := range got {
				if m == -1 && i != len(got)-1 {
					t.Errorf("seed %d: %s received %v after its done", seed, id, got[i+1:])
				}
			}
			if len(got) == 0 || got[len(got)-1] != plan[len(plan)-1] {
				t.Errorf("seed %d: %s received %v, which does not end with its last message %d", seed, id, got, plan[len(plan)-1])
			}
			coalesced += len(plan) - len(got)
			if len(got) > 1 {
				delivered++
			}
		}
		rec.mu.Unlock()
	}
	// The stalls must have made both cases happen: messages replaced
	// before they were sent, and jobs that got several of theirs through.
	t.Logf("%d messages coalesced away; %d jobs got several messages through", coalesced, delivered)
	if coalesced == 0 || delivered == 0 {
		t.Errorf("the schedules exercised too little: %d messages coalesced, %d jobs with several delivered", coalesced, delivered)
	}
}

// standbyGate sits in front of a replica's handler. While held, it records
// each standby message on arrival and holds it until release; a held
// request whose client gave up is refused unapplied, as its sender counted
// it lost. Other requests pass straight through.
type standbyGate struct {
	mu      sync.Mutex
	open    chan struct{}
	arrived []standbyWire
}

func newStandbyGate() *standbyGate {
	g := &standbyGate{open: make(chan struct{})}
	close(g.open)
	return g
}

func (g *standbyGate) hold() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

// release opens the gate; it is idempotent.
func (g *standbyGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

// messages returns the standby messages that have arrived so far.
func (g *standbyGate) messages() []standbyWire {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]standbyWire(nil), g.arrived...)
}

// awaitMessages waits until at least n standby messages have arrived.
func (g *standbyGate) awaitMessages(t *testing.T, n int) []standbyWire {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if got := g.messages(); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d standby messages never arrived (got %d)", n, len(g.messages()))
		}
		time.Sleep(time.Millisecond)
	}
}

func (g *standbyGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/standby" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var msg standbyWire
		if err := json.Unmarshal(body, &msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		g.mu.Lock()
		g.arrived = append(g.arrived, msg)
		open := g.open
		g.mu.Unlock()
		select {
		case <-open:
		case <-r.Context().Done():
			http.Error(w, "held until the client gave up", http.StatusServiceUnavailable)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	})
}

// startGatedFleet boots a two-replica fleet with a standby gate in front of
// each replica and a client timeout no held post in these tests reaches.
func startGatedFleet(t *testing.T) ([]*clusterNode, []*standbyGate) {
	t.Helper()
	gates := []*standbyGate{newStandbyGate(), newStandbyGate()}
	nodes := startFleetWith(t, 2, 30*time.Second, func(i int, h http.Handler) http.Handler {
		return gates[i].wrap(h)
	})
	return nodes, gates
}

func gateOf(nodes []*clusterNode, gates []*standbyGate, nd *clusterNode) *standbyGate {
	for i := range nodes {
		if nodes[i] == nd {
			return gates[i]
		}
	}
	return nil
}

// TestStandbyOffJobPath: a peer that does not answer standby posts does not
// hold up the owner's jobs. With the peer's handler blocked, the owner's
// adaptive job still reaches done; once the handler is released, the job's
// done — queued behind the message the peer holds, or replacing the
// checkpoint it was about to get — leaves the peer no standby entry.
func TestStandbyOffJobPath(t *testing.T) {
	nodes, gates := startGatedFleet(t)
	req := JobRequest{TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)
	gate := gateOf(nodes, gates, peer)
	gate.hold()
	t.Cleanup(gate.release)

	st := postJob(t, owner.base, req)
	awaitDone(t, owner.svc, st.ID, 60*time.Second)
	held := gate.awaitMessages(t, 1)
	t.Logf("the job finished while the peer held %d of its messages (the first: done=%v)", len(held), held[0].Done)

	// Drain returns once the job's worker has left finish, so its done is
	// queued by then.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	owner.svc.Drain(dctx)
	gate.release()
	if err := owner.svc.outbox.drained(dctx); err != nil {
		t.Fatalf("owner's standby outbox did not drain: %v", err)
	}
	if n := peer.svc.StandbyCount(); n != 0 {
		t.Errorf("peer holds %d standby entries after the job's done, want 0", n)
	}
	got := gate.messages()
	if last := got[len(got)-1]; last.ID != st.ID || !last.Done {
		t.Errorf("last standby message at the peer is %+v, want the done of %s", last, st.ID)
	}
}

// TestStandbyHandoffDrainsOutbox: Handoff waits for the outboxes to drain
// before it activates a job on its successor. A drain-canceled job's latest
// checkpoint, still queued behind an earlier one the peer holds, reaches
// the peer before the activate does, so the adopter keeps no standby entry
// of the job it now runs.
func TestStandbyHandoffDrainsOutbox(t *testing.T) {
	nodes, gates := startGatedFleet(t)
	req := JobRequest{Mode: ModeAdaptive, Tenant: "default", TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 1000, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)
	gate := gateOf(nodes, gates, peer)

	task, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var cks [][]byte
	if _, err := task.Run(context.Background(), joinopt.Requirement{TauG: 4, TauB: 40},
		joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			if wire, err := ck.MarshalJSON(); err == nil {
				cks = append(cks, wire)
			}
		})); err != nil {
		t.Fatal(err)
	}
	if len(cks) < 2 {
		t.Fatalf("the adaptive run wrote %d checkpoints, want at least 2", len(cks))
	}
	latest, err := joinopt.DecodeCheckpoint(cks[len(cks)-1])
	if err != nil {
		t.Fatal(err)
	}

	// The job as a drain leaves it: canceled mid-run, holding its latest
	// checkpoint.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	owner.svc.Drain(dctx)
	reqWire, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &Job{
		ID: owner.svc.nodeJobID(owner.svc.seq.Add(1)), Tenant: req.Tenant, req: req, reqWire: reqWire,
		key: CanonicalWorkloadKey(req), node: owner.cl.SelfName(), ctx: ctx, cancel: cancel,
		events: newEventLog(), state: StateCanceled, drainCanceled: true, checkpoint: latest,
		submitted: time.Now(),
	}
	owner.svc.storeJob(j)

	gate.hold()
	t.Cleanup(gate.release)
	owner.svc.replicateCheckpoint(j, cks[0])
	gate.awaitMessages(t, 1) // the first checkpoint is in flight, held at the peer
	owner.svc.replicateCheckpoint(j, cks[len(cks)-1])

	handed := make(chan int, 1)
	go func() {
		hctx, hcancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer hcancel()
		handed <- owner.svc.Handoff(hctx)
	}()
	// Give a Handoff that does not wait time to send its activate.
	deadline := time.Now().Add(300 * time.Millisecond)
	for len(gate.messages()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	gate.release()
	if n := <-handed; n != 1 {
		t.Fatalf("Handoff moved %d jobs, want 1", n)
	}

	var kinds []string
	for _, m := range gate.messages() {
		switch {
		case m.ID != j.ID:
			kinds = append(kinds, "other")
		case m.Activate:
			kinds = append(kinds, "activate")
		case m.Done:
			kinds = append(kinds, "done")
		case bytes.Equal(m.Checkpoint, cks[0]):
			kinds = append(kinds, "first")
		case bytes.Equal(m.Checkpoint, cks[len(cks)-1]):
			kinds = append(kinds, "latest")
		default:
			kinds = append(kinds, "unknown")
		}
	}
	if fmt.Sprint(kinds) != "[first latest activate]" {
		t.Errorf("the peer received %v, want [first latest activate]", kinds)
	}
	if n := peer.svc.StandbyCount(); n != 0 {
		t.Errorf("peer holds %d standby entries after adopting the job, want 0", n)
	}
	awaitDone(t, peer.svc, j.ID, 60*time.Second)
	if n := peer.reg.Counter(obs.Series(cluster.MetricMigrations, "how", "handoff")).Value(); n != 1 {
		t.Errorf("handoff migrations on the peer = %d, want 1", n)
	}
}

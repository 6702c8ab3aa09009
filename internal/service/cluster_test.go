package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/obs"
)

// clusterNode is one in-process replica: a real Service behind a real TCP
// listener, so forwarding, probing, and standby replication all cross an
// actual HTTP boundary.
type clusterNode struct {
	svc  *Service
	cl   *cluster.Cluster
	reg  *obs.Registry
	base string
	srv  *http.Server
	ln   net.Listener
}

// startFleet boots n replicas wired into one cluster with fast probes.
func startFleet(t *testing.T, n int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		cfg := cluster.Config{
			Self:          peers[i],
			Peers:         peers,
			VNodes:        16,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  100 * time.Millisecond,
			SuspectAfter:  2,
			DownAfter:     4,
		}
		reg := obs.NewRegistry()
		cl, err := cluster.New(cfg, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Workers: 1, Metrics: reg, Cluster: cl, Logf: t.Logf})
		srv := &http.Server{Handler: svc.Handler()}
		nodes[i] = &clusterNode{svc: svc, cl: cl, reg: reg, base: peers[i], srv: srv, ln: lns[i]}
		go srv.Serve(lns[i])
		cl.Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.cl.Stop()
			nd.srv.Close()
		}
	})
	return nodes
}

// kill makes a node drop off the network without any goodbye — the
// in-process stand-in for SIGKILL. A real SIGKILL also stops the victim's
// goroutines; in-process we must cancel them by hand, or the "dead" owner
// would finish its jobs and retire the very standby entries the survivor
// is about to adopt. No drain, no handoff — the survivor must discover the
// death by probe.
func (nd *clusterNode) kill() {
	// Goroutine-stop first: Stop blocks on the probe loop, and a job that
	// finishes in that window would retire its own standby entry. The
	// cancellations are tagged drain-issued so finish() treats them as
	// infrastructure-interrupted work (no standby retire) rather than user
	// cancels — a real SIGKILL runs no finish() at all.
	nd.svc.sched.cancelInFlight(
		func(j *Job) { j.markDrainCanceled(); nd.svc.markCanceled(j) },
		func(j *Job) { j.markDrainCanceled(); j.cancel() },
	)
	nd.cl.Stop()
	nd.srv.Close()
}

// ownerAndPeer splits a two-node fleet by who owns req's workload.
func ownerAndPeer(t *testing.T, nodes []*clusterNode, req JobRequest) (owner, peer *clusterNode) {
	t.Helper()
	name, _, _ := nodes[0].svc.ownerFor(req)
	for _, nd := range nodes {
		if nd.cl.SelfName() == name {
			owner = nd
		} else {
			peer = nd
		}
	}
	if owner == nil || peer == nil {
		t.Fatalf("fleet did not split into owner and peer (owner name %s)", name)
	}
	return owner, peer
}

func postJob(t *testing.T, base string, req JobRequest) JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitDone polls one service directly until the job is done.
func awaitDone(t *testing.T, svc *Service, id string, timeout time.Duration) *JobResult {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, err := svc.job(id); err == nil {
			res, state, msg := j.Result()
			switch state {
			case StateDone:
				return res
			case StateFailed:
				t.Fatalf("job %s failed: %s", id, msg)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not done within %s", id, timeout)
	return nil
}

func TestCanonicalWorkloadKey(t *testing.T) {
	// Spelled-out defaults and defaulted fields must produce the same key.
	explicit := JobRequest{Workload: WorkloadSpec{Relations: [2]string{"HQ", "EX"}, NumDocs: 1000, Seed: 1}}
	defaulted := JobRequest{}
	if a, b := CanonicalWorkloadKey(explicit), CanonicalWorkloadKey(defaulted); a != b {
		t.Errorf("defaults not folded into the key: %q vs %q", a, b)
	}
	// Cache sizing is not placement: replicas with different defaults must
	// agree on ownership.
	sized := explicit
	sized.Workload.CacheBytes = 1 << 20
	if a, b := CanonicalWorkloadKey(explicit), CanonicalWorkloadKey(sized); a != b {
		t.Errorf("CacheBytes leaked into the workload key: %q vs %q", a, b)
	}
	// Different workloads get different keys.
	other := explicit
	other.Workload.Seed = 99
	if CanonicalWorkloadKey(explicit) == CanonicalWorkloadKey(other) {
		t.Error("distinct workloads share a key")
	}
}

// TestClusterForwardSubmit: a submission through the wrong replica lands on
// the owner (proxy mode), the job ID carries the owner's node prefix, and
// the forward shows up in the non-owner's metrics.
func TestClusterForwardSubmit(t *testing.T) {
	nodes := startFleet(t, 2)
	req := JobRequest{TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)

	st := postJob(t, peer.base, req)
	if st.Node != owner.cl.SelfName() {
		t.Errorf("job ran on %s, want owner %s", st.Node, owner.cl.SelfName())
	}
	wantPrefix := owner.cl.SelfName() + "-j"
	if len(st.ID) < len(wantPrefix) || st.ID[:len(wantPrefix)] != wantPrefix {
		t.Errorf("job ID %q does not carry the owner's prefix %q", st.ID, wantPrefix)
	}
	if got := peer.reg.Counter(obs.Series(cluster.MetricForwards, "kind", "proxy")).Value(); got != 1 {
		t.Errorf("proxy forwards on the non-owner = %d, want 1", got)
	}
	// The owner serves it locally (no onward forward).
	if _, err := owner.svc.job(st.ID); err != nil {
		t.Errorf("owner does not hold the forwarded job: %v", err)
	}
	awaitDone(t, owner.svc, st.ID, 60*time.Second)

	// A status poll against the non-owner 307s to the owner, and Go's
	// default client follows it.
	resp, err := http.Get(peer.base + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("redirected status poll: %s", resp.Status)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.State != StateDone {
		t.Errorf("redirected poll returned %s/%s", got.ID, got.State)
	}
}

// TestClusterRedirectSubmit covers ForwardRedirect: the non-owner answers
// 307 with the owner's URL instead of proxying.
func TestClusterRedirectSubmit(t *testing.T) {
	nodes := startFleet(t, 2)
	for _, nd := range nodes {
		nd.svc.opts.ForwardMode = ForwardRedirect
	}
	req := JobRequest{Mode: ModeOptimize, TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)

	body, _ := json.Marshal(req)
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Post(peer.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner answered %s, want 307", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != owner.base+"/v1/jobs" {
		t.Errorf("Location = %q, want %q", loc, owner.base+"/v1/jobs")
	}
}

// migrationReq is a pipelined adaptive job slow enough to checkpoint several
// times mid-run (the same shape crash-smoke interrupts). Every call hands
// out a fresh workload seed: process-global memoization would otherwise
// make repeat runs (-count=N) finish so fast that the kill or drain lands
// after the job instead of mid-run. Callers needing the same workload
// twice (reference + fleet) must call once and reuse the value.
var migrationSeq atomic.Int64

func migrationReq() JobRequest {
	return JobRequest{
		TauG: 8, TauB: 400, ExecWorkers: 2,
		Workload: WorkloadSpec{NumDocs: 5000, Seed: 21 + migrationSeq.Add(1)},
	}
}

// waitFleetHealthy blocks until every node probes every peer alive, so a
// transient boot-window down-mark (slow first probes under load) cannot
// make the owner skip standby replication for the job about to run.
func waitFleetHealthy(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		healthy := true
		for _, nd := range nodes {
			for _, other := range nodes {
				if other != nd && nd.cl.MemberState(other.cl.SelfName()) != cluster.StateAlive {
					healthy = false
				}
			}
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never became mutually healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freezeAtCheckpoint installs the checkpoint-sink test hook on the owner:
// the running job blocks inside its sink — after a checkpoint has provably
// replicated to the standby node, before any further progress — until
// release is closed. This makes "interrupt the job mid-run" deterministic:
// without it the tests race wall-clock against job completion, and a warm
// process (repeat -count runs, or the reference run warming shared state)
// finishes jobs so fast the kill or drain lands after the job instead of
// mid-run. Checkpoints whose replication was skipped or lost (replication
// is best-effort; a transiently down-marked peer is skipped) fall through
// to the next one, which retries. Install before submitting.
func freezeAtCheckpoint(owner, standby *clusterNode) (frozen chan *Job, release chan struct{}) {
	frozen = make(chan *Job, 1)
	release = make(chan struct{})
	var once sync.Once
	owner.svc.ckTestHook = func(j *Job) {
		if standby.svc.StandbyCount() == 0 {
			return
		}
		once.Do(func() {
			frozen <- j
			<-release
		})
	}
	return frozen, release
}

func awaitFrozen(t *testing.T, frozen chan *Job) *Job {
	t.Helper()
	select {
	case j := <-frozen:
		return j
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached a checkpoint")
		return nil
	}
}

// TestClusterTakeover is the tentpole invariant in-process: the owner dies
// mid-run without warning, the survivor detects it, adopts the replicated
// checkpoint, and finishes the job bit-identical to an undisturbed run.
func TestClusterTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pipelined adaptive job three times")
	}
	req := migrationReq()

	// Reference: the same job on a solo service, start to finish.
	solo := New(Options{Workers: 1})
	refJob, err := solo.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ref := awaitDone(t, solo, refJob.ID, 120*time.Second)

	nodes := startFleet(t, 2)
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)
	frozen, release := freezeAtCheckpoint(owner, peer)

	st := postJob(t, owner.base, req)
	// The job is now frozen inside a checkpoint sink: provably mid-run,
	// with that checkpoint already replicated to the peer.
	awaitFrozen(t, frozen)

	owner.kill()
	close(release) // the canceled run unblocks and observes its death

	got := awaitDone(t, peer.svc, st.ID, 120*time.Second)
	if n := peer.reg.Counter(obs.Series(cluster.MetricMigrations, "how", "takeover")).Value(); n < 1 {
		t.Errorf("takeover migrations = %d, want >= 1", n)
	}
	assertBitIdentical(t, ref, got)

	// The adopted job is served under its original (origin-prefixed) ID by
	// the survivor.
	if j, err := peer.svc.job(st.ID); err != nil {
		t.Errorf("survivor does not serve the migrated job: %v", err)
	} else if j.Status().Node != peer.cl.SelfName() {
		t.Errorf("migrated job reports node %s, want %s", j.Status().Node, peer.cl.SelfName())
	}
}

// TestClusterDrainHandoff: a clean shutdown (drain) actively hands
// interrupted jobs to their successors instead of waiting to be missed.
func TestClusterDrainHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pipelined adaptive job twice")
	}
	nodes := startFleet(t, 2)
	req := migrationReq()
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)
	frozen, release := freezeAtCheckpoint(owner, peer)

	st := postJob(t, owner.base, req)
	j := awaitFrozen(t, frozen)

	// Drain with an already-expired deadline: the running job is canceled
	// (it checkpoints) and Handoff ships it to the peer. Drain waits for
	// the worker, which is frozen in the sink — release it once its
	// cancellation has landed, so the drain provably interrupts mid-run.
	dctx, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan struct{})
	go func() {
		owner.svc.Drain(dctx)
		close(drained)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for j.ctx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("drain never canceled the running job")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer hcancel()
	if n := owner.svc.Handoff(hctx); n != 1 {
		t.Fatalf("Handoff moved %d jobs, want 1", n)
	}

	got := awaitDone(t, peer.svc, st.ID, 120*time.Second)
	if got.Good <= 0 || len(got.Plans) == 0 {
		t.Errorf("handed-off job finished implausibly: good=%d plans=%d", got.Good, len(got.Plans))
	}
	if n := peer.reg.Counter(obs.Series(cluster.MetricMigrations, "how", "handoff")).Value(); n < 1 {
		t.Errorf("handoff migrations = %d, want >= 1", n)
	}
}

// TestHandoffRetiresDoneJobs: a job that completed before the drain must
// not leave its replicated standby entry on the peer — finish()'s async
// retire can race process exit, so Handoff sweeps terminal jobs and
// retires them synchronously. A leftover entry would make the survivor
// re-run an already-finished job once the origin is probed down.
func TestHandoffRetiresDoneJobs(t *testing.T) {
	nodes := startFleet(t, 2)
	req := JobRequest{TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)

	st := postJob(t, owner.base, req)
	awaitDone(t, owner.svc, st.ID, 60*time.Second)

	// Recreate the stale standby entry an unsent async retire leaves behind.
	reqWire, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.svc.acceptStandby(standbyWire{
		ID: st.ID, Origin: owner.cl.SelfName(), Request: reqWire,
	}); err != nil {
		t.Fatal(err)
	}
	if got := peer.svc.StandbyCount(); got != 1 {
		t.Fatalf("standby count before handoff = %d, want 1", got)
	}

	hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer hcancel()
	if n := owner.svc.Handoff(hctx); n != 0 {
		t.Errorf("Handoff moved %d jobs, want 0 (the job is done)", n)
	}
	if got := peer.svc.StandbyCount(); got != 0 {
		t.Errorf("done job's standby entry survived Handoff: count = %d", got)
	}
}

// assertBitIdentical pins the migration contract: everything except timing
// matches exactly, and timing obeys the Time + ΣCacheSaved cache-warmth
// invariant.
func assertBitIdentical(t *testing.T, ref, got *JobResult) {
	t.Helper()
	if got.Good != ref.Good || got.Bad != ref.Bad {
		t.Errorf("tuple counts differ: got %d/%d, ref %d/%d", got.Good, got.Bad, ref.Good, ref.Bad)
	}
	if fmt.Sprint(got.Plans) != fmt.Sprint(ref.Plans) {
		t.Errorf("plan sequences differ:\n got %v\n ref %v", got.Plans, ref.Plans)
	}
	if len(got.Tuples) != len(ref.Tuples) {
		t.Errorf("tuple lists differ in length: got %d, ref %d", len(got.Tuples), len(ref.Tuples))
	} else {
		for i := range got.Tuples {
			if got.Tuples[i] != ref.Tuples[i] {
				t.Errorf("tuple %d differs: got %+v, ref %+v", i, got.Tuples[i], ref.Tuples[i])
				break
			}
		}
	}
	refT := ref.Time + ref.CacheSaved[0] + ref.CacheSaved[1]
	gotT := got.Time + got.CacheSaved[0] + got.CacheSaved[1]
	if math.Abs(refT-gotT) > 1e-6*math.Max(1, math.Abs(refT)) {
		t.Errorf("Time+ΣCacheSaved differs: got %g, ref %g", gotT, refT)
	}
}

// TestHandoffSkipsUserCanceled: a job the user explicitly canceled (DELETE
// /v1/jobs/{id}) must not be shipped to a peer on drain — the cancel
// contract outlives the replica. The store retains terminal jobs, so
// without the drain-canceled distinction every SIGTERM would resurrect it.
// Handoff must instead retire any standby entry the job left behind.
func TestHandoffSkipsUserCanceled(t *testing.T) {
	nodes := startFleet(t, 2)
	req := JobRequest{TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}}
	owner, peer := ownerAndPeer(t, nodes, req)
	waitFleetHealthy(t, nodes)

	// One worker: the first job occupies it, the second queues; canceling
	// the queued job is the user-DELETE path (markCanceled, no drain flag).
	blocker, err := owner.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := owner.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.svc.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, owner.svc, blocker.ID, 60*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for !victim.terminal() {
		if time.Now().After(deadline) {
			t.Fatal("canceled job never reached a terminal state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Recreate the stale standby entry an unsent async retire leaves behind
	// for the canceled job.
	reqWire, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.svc.acceptStandby(standbyWire{
		ID: victim.ID, Origin: owner.cl.SelfName(), Request: reqWire,
	}); err != nil {
		t.Fatal(err)
	}

	hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer hcancel()
	if n := owner.svc.Handoff(hctx); n != 0 {
		t.Errorf("Handoff moved %d jobs, want 0 (user-canceled must stay canceled)", n)
	}
	if got := peer.svc.StandbyCount(); got != 0 {
		t.Errorf("user-canceled job's standby entry survived Handoff: count = %d", got)
	}
	if _, err := peer.svc.job(victim.ID); err == nil {
		t.Error("peer adopted a user-canceled job")
	}
}

// TestStandbyRejectsHandoffWhileDraining: a draining replica has no workers
// left, so accepting an activate (drain handoff) would journal a job that
// sits queued forever while the sender counts it handed off. It must answer
// non-200 (503) so the job stays recoverable at its origin; plain standby
// holds are still accepted — holding replicas for peers needs no workers.
func TestStandbyRejectsHandoffWhileDraining(t *testing.T) {
	nodes := startFleet(t, 2)
	owner, peer := nodes[0], nodes[1]

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	peer.svc.Drain(dctx)

	reqWire, err := json.Marshal(JobRequest{TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 450, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	wire := standbyWire{
		ID: owner.cl.SelfName() + "-j000001", Origin: owner.cl.SelfName(),
		Request: reqWire, Activate: true,
	}
	if err := peer.svc.acceptStandby(wire); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining replica accepted a handoff: err = %v, want ErrDraining", err)
	}
	if _, err := peer.svc.job(wire.ID); err == nil {
		t.Error("draining replica stored the refused job")
	}

	// Over HTTP the refusal is a 503, which the sender logs as a failure.
	body, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(peer.base+"/v1/cluster/standby", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("handoff to draining replica answered %s, want 503", resp.Status)
	}

	// A plain hold (no Activate) is still fine while draining.
	hold := standbyWire{
		ID: owner.cl.SelfName() + "-j000002", Origin: owner.cl.SelfName(), Request: reqWire,
	}
	if err := peer.svc.acceptStandby(hold); err != nil {
		t.Errorf("draining replica refused a plain standby hold: %v", err)
	}
	if got := peer.svc.StandbyCount(); got != 1 {
		t.Errorf("standby count = %d, want 1", got)
	}
}

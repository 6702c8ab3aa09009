package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"joinopt"
	"joinopt/internal/cluster"
	"joinopt/internal/durable"
	"joinopt/internal/obs"
)

// The cluster side of the service: ownership-aware routing for the HTTP
// layer, checkpoint replication to the ring successor, and job migration —
// adopting a dead or draining peer's jobs from their replicated checkpoints
// and resuming them with WithCheckpoint, bit-identical to an uninterrupted
// run (the invariant the crash-smoke harness pins in-process and
// cluster-smoke pins across processes).

// forwardHeader marks an intra-cluster request so the receiver serves it
// locally instead of re-forwarding — one hop, never a loop, even when two
// replicas transiently disagree about ownership.
const forwardHeader = "X-Joinopt-Forwarded"

// Forward modes (Options.ForwardMode).
const (
	// ForwardProxy transparently re-issues a mis-addressed submission to
	// the owner and relays its response (default — clients need no redirect
	// support and keep talking to one address).
	ForwardProxy = "proxy"
	// ForwardRedirect answers mis-addressed submissions with 307 and the
	// owner's URL (clients re-POST; cheaper for large request bodies).
	ForwardRedirect = "redirect"
)

// CanonicalWorkloadKey is the cluster routing key of a job request: the
// same canonical workload string that namespaces the durable cache tier, so
// all jobs of one workload land on the replica holding its trained
// machinery, environment statics, perfect-knowledge statistics, and warmed
// disk tier. Cache sizing is deliberately not part of the key — replicas
// with different cache defaults must still agree on ownership.
func CanonicalWorkloadKey(req JobRequest) string {
	spec := req.Workload
	if req.Query == nil && spec.Relations == [2]string{} {
		spec.Relations = [2]string{"HQ", "EX"}
	}
	if spec.NumDocs == 0 {
		spec.NumDocs = 1000
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	spec.CacheBytes = 0
	return cacheNamespace(regKey{wl: spec, query: req.Query.key()})
}

// standbyWire is the POST /v1/cluster/standby payload: everything a peer
// needs to adopt one job — the original request, the latest checkpoint, and
// the origin so a down-transition knows which entries to activate.
type standbyWire struct {
	ID         string          `json:"id"`
	Tenant     string          `json:"tenant"`
	Origin     string          `json:"origin"` // member name of the replica running the job
	Request    json.RawMessage `json:"request"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"` // joinopt checkpoint wire; absent for queued jobs
	// Activate asks the receiver to run the job now (drain handoff);
	// without it the entry is held in standby until the origin goes down.
	Activate bool `json:"activate,omitempty"`
	// Done retires the entry: the origin finished the job itself.
	Done bool `json:"done,omitempty"`
}

// standbyStore holds the peer jobs this replica may need to adopt.
type standbyStore struct {
	mu      sync.Mutex
	entries map[string]standbyWire
	gauge   *obs.Gauge
}

func newStandbyStore(m *obs.Registry) *standbyStore {
	return &standbyStore{entries: map[string]standbyWire{}, gauge: m.Gauge(cluster.MetricStandbyJobs)}
}

func (st *standbyStore) put(w standbyWire) {
	st.mu.Lock()
	st.entries[w.ID] = w
	st.gauge.Set(float64(len(st.entries)))
	st.mu.Unlock()
}

func (st *standbyStore) remove(id string) (standbyWire, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w, ok := st.entries[id]
	if ok {
		delete(st.entries, id)
		st.gauge.Set(float64(len(st.entries)))
	}
	return w, ok
}

// fromOrigin snapshots the entries replicated by one member.
func (st *standbyStore) fromOrigin(origin string) []standbyWire {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []standbyWire
	for _, w := range st.entries {
		if w.Origin == origin {
			out = append(out, w)
		}
	}
	return out
}

func (st *standbyStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// initCluster wires the cluster into a freshly built service: metric
// counters, the standby store (reloaded from the durable tier when one
// exists), and the down-transition hook that migrates a dead peer's jobs.
// Runs during New, before the service serves.
func (s *Service) initCluster() {
	c := s.opts.Cluster
	m := s.opts.Metrics
	s.standby = newStandbyStore(m)
	s.outbox = newStandbyOutbox(func(url string, w standbyWire) {
		if err := s.sendStandby(url, w); err != nil {
			s.logf("cluster: standby message for %s to %s: %v", w.ID, url, err)
		}
	})
	s.migrations = map[string]*obs.Counter{
		"takeover": m.Counter(obs.Series(cluster.MetricMigrations, "how", "takeover")),
		"handoff":  m.Counter(obs.Series(cluster.MetricMigrations, "how", "handoff")),
	}
	if d := s.opts.Durable; d != nil {
		for id, payload := range d.LoadStandbys() {
			var w standbyWire
			if err := json.Unmarshal(payload, &w); err != nil || w.ID != id {
				m.Counter(obs.Series(obs.MetricDurableErrs, "op", "standby")).Inc()
				d.DeleteStandby(id)
				continue
			}
			if j, err := s.job(id); err == nil && j.terminal() {
				d.DeleteStandby(id) // adopted or finished before the restart
				continue
			}
			s.standby.put(w)
		}
	}
	c.OnDown(func(name string) { s.migrateFrom(name) })
}

// ownerFor resolves the owning replica of a request's workload. self
// reports whether this replica is the owner.
func (s *Service) ownerFor(req JobRequest) (name, url string, self bool) {
	c := s.opts.Cluster
	if c == nil {
		return "", "", true
	}
	name, url = c.Owner(CanonicalWorkloadKey(req))
	return name, url, name == c.SelfName()
}

// replicateCheckpoint queues a running job's latest checkpoint for the
// replica that would inherit its workload and returns at once; the peer's
// outbox posts it in order (the standby must never hold a newer
// checkpoint's predecessor), or drops it unsent when a newer message of the
// job replaces it first. Failures are absorbed — the origin still has the
// durable tier, and the next checkpoint retries.
func (s *Service) replicateCheckpoint(j *Job, ckWire []byte) {
	c := s.opts.Cluster
	_, url, ok := c.StandbyTarget(j.key)
	if !ok || j.reqWire == nil {
		return
	}
	j.mu.Lock()
	if j.standbys == nil {
		j.standbys = map[string]struct{}{}
	}
	j.standbys[url] = struct{}{}
	j.mu.Unlock()
	s.outbox.enqueue(url, standbyWire{
		ID: j.ID, Tenant: j.Tenant, Origin: c.SelfName(),
		Request: j.reqWire, Checkpoint: ckWire,
	})
}

// retireStandby queues a done message for every standby holder of a job
// that reached a terminal state, so no replicated entry lingers (and cannot
// be spuriously adopted later). It targets every peer the job was ever
// replicated to, not just the current successor: a mid-run successor change
// (e.g. a transient false-down of the original standby) would otherwise
// leave the earlier holder a stale entry that no retire ever reaches. The
// current successor is included too, covering jobs rebuilt after a restart
// whose replication history did not survive in memory — which is also why
// a done is sent even when none of the job's checkpoints was.
func (s *Service) retireStandby(j *Job) {
	c := s.opts.Cluster
	targets := map[string]struct{}{}
	if _, url, ok := c.StandbyTarget(j.key); ok {
		targets[url] = struct{}{}
	}
	j.mu.Lock()
	for url := range j.standbys {
		targets[url] = struct{}{}
	}
	j.mu.Unlock()
	for url := range targets {
		s.outbox.enqueue(url, standbyWire{ID: j.ID, Origin: c.SelfName(), Done: true})
	}
}

// standbyOutbox takes standby replication off the job's path: each peer
// has one queue, posted in order by one goroutine that runs while the queue
// is non-empty, over the cluster client's reused connections. A queue holds
// at most one unsent message per job: a newer checkpoint replaces an older
// one, and the job's done replaces its checkpoint and is always sent. So
// the peer sees each job's messages as a subsequence of those queued, in
// order, ending with the last one queued.
type standbyOutbox struct {
	send func(url string, w standbyWire) // posts one message, absorbing failures

	mu     sync.Mutex
	peers  map[string]*standbyQueue // by peer base URL
	active int                      // queues with a running sender goroutine
	idle   chan struct{}            // closed while active is 0
}

// standbyQueue is one peer's unsent messages, in send order.
type standbyQueue struct {
	pending []standbyWire
	running bool // a goroutine is posting this queue
}

func newStandbyOutbox(send func(url string, w standbyWire)) *standbyOutbox {
	idle := make(chan struct{})
	close(idle)
	return &standbyOutbox{send: send, peers: map[string]*standbyQueue{}, idle: idle}
}

// enqueue queues w for the peer at url and returns at once, starting the
// peer's sender goroutine if it is not running.
func (o *standbyOutbox) enqueue(url string, w standbyWire) {
	o.mu.Lock()
	defer o.mu.Unlock()
	q := o.peers[url]
	if q == nil {
		q = &standbyQueue{}
		o.peers[url] = q
	}
	q.put(w)
	if q.running {
		return
	}
	q.running = true
	if o.active == 0 {
		o.idle = make(chan struct{})
	}
	o.active++
	go o.run(url, q)
}

// put replaces the job's unsent message with w, in that message's place in
// the queue, or queues w last. A job queues nothing after its done.
func (q *standbyQueue) put(w standbyWire) {
	for i := range q.pending {
		if q.pending[i].ID == w.ID {
			q.pending[i] = w
			return
		}
	}
	q.pending = append(q.pending, w)
}

// run posts q's messages in order until it is empty.
func (o *standbyOutbox) run(url string, q *standbyQueue) {
	o.mu.Lock()
	for len(q.pending) > 0 {
		w := q.pending[0]
		q.pending[0] = standbyWire{} // the queue keeps no sent checkpoint alive
		q.pending = q.pending[1:]
		o.mu.Unlock()
		o.send(url, w)
		o.mu.Lock()
	}
	q.running = false
	o.active--
	if o.active == 0 {
		close(o.idle)
	}
	o.mu.Unlock()
}

// drained waits until every queue is empty and no post is in flight, or
// ctx ends.
func (o *standbyOutbox) drained(ctx context.Context) error {
	o.mu.Lock()
	idle := o.idle
	o.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// marshal encodes w as json.Marshal does, appending Request and
// Checkpoint as they are: both are json.Marshal output (the request's
// encoding, ck.MarshalJSON), already compact and HTML-escaped, which
// json.Marshal would scan again to compact.
func (w standbyWire) marshal() []byte {
	b := make([]byte, 0, len(w.Request)+len(w.Checkpoint)+128)
	for _, f := range [...]struct{ key, val string }{{`{"id":`, w.ID}, {`,"tenant":`, w.Tenant}, {`,"origin":`, w.Origin}} {
		b = append(b, f.key...)
		val, _ := json.Marshal(f.val) // a string always encodes
		b = append(b, val...)
	}
	b = append(b, `,"request":`...)
	if w.Request == nil {
		b = append(b, "null"...)
	}
	b = append(b, w.Request...)
	if len(w.Checkpoint) > 0 {
		b = append(b, `,"checkpoint":`...)
		b = append(b, w.Checkpoint...)
	}
	if w.Activate {
		b = append(b, `,"activate":true`...)
	}
	if w.Done {
		b = append(b, `,"done":true`...)
	}
	return append(b, '}')
}

// sendStandby posts one standby message to a peer. Best-effort. It reads
// the response to EOF, so the cluster client keeps the connection for the
// next message instead of dialing a new one.
func (s *Service) sendStandby(url string, w standbyWire) error {
	body := w.marshal()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/cluster/standby", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	resp, err := s.opts.Cluster.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// The status alone says whether the peer took the message.
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("standby %s: %s", url, resp.Status)
	}
	return nil
}

// acceptStandby handles one POST /v1/cluster/standby message: retire,
// activate (drain handoff), or hold.
func (s *Service) acceptStandby(w standbyWire) error {
	if w.ID == "" {
		return fmt.Errorf("standby message without a job id")
	}
	// The message itself proves its origin is alive — stronger evidence
	// than a probe. Resetting the probe state here guarantees the origin's
	// real death later is a fresh down-transition, so the migration hook
	// fires with this entry in the store (and never strands it behind a
	// stale false-down from a slow /healthz).
	if w.Origin != "" {
		s.opts.Cluster.ReportAlive(w.Origin)
	}
	if w.Done {
		s.standby.remove(w.ID)
		if d := s.opts.Durable; d != nil {
			d.DeleteStandby(w.ID)
		}
		return nil
	}
	if len(w.Request) == 0 {
		return fmt.Errorf("standby message for %s carries no job request", w.ID)
	}
	if w.Activate {
		// A draining replica must refuse handoffs: its workers have (or are
		// about to have) exited, and adopt's forceSubmit bypasses the
		// scheduler's draining check, so an accepted job would be journaled
		// and then sit queued forever. During simultaneous rolling restarts
		// two drains can point at each other — the non-200 makes the sender
		// log the failure and keep the job recoverable at its origin.
		if s.draining.Load() {
			return fmt.Errorf("%w: refusing handoff of job %s", ErrDraining, w.ID)
		}
		return s.adopt(w, "handoff")
	}
	s.standby.put(w)
	if d := s.opts.Durable; d != nil {
		d.SaveStandby(w.ID, w.marshal())
	}
	return nil
}

// migrateFrom adopts every standby entry replicated by a member now probed
// down. Entries whose workload this replica does not own after the
// remapping are left in standby — their new owner holds its own replica of
// them (the origin replicated each checkpoint to that key's successor, and
// this replica is only the successor for keys it inherits).
func (s *Service) migrateFrom(origin string) {
	if s.draining.Load() {
		return // a draining survivor must not adopt new work
	}
	for _, w := range s.standby.fromOrigin(origin) {
		var req JobRequest
		if err := json.Unmarshal(w.Request, &req); err != nil {
			continue
		}
		if _, _, self := s.ownerFor(req); !self {
			continue
		}
		if err := s.adopt(w, "takeover"); err != nil {
			s.logf("cluster: adopting %s from down peer %s: %v", w.ID, origin, err)
		}
	}
}

// adopt runs a replicated peer job on this replica: the job enters the
// store under its original cluster-wide ID, is journaled like a local
// submission (so it survives this replica crashing too), and resumes from
// the replicated checkpoint when one exists — the bit-identical-resume
// contract makes the migrated run indistinguishable from one the origin
// finished itself.
func (s *Service) adopt(w standbyWire, how string) error {
	s.standby.remove(w.ID)
	if d := s.opts.Durable; d != nil {
		d.DeleteStandby(w.ID)
	}
	if _, err := s.job(w.ID); err == nil {
		return nil // already adopted (hook re-fire) or recovered locally
	}
	var req JobRequest
	if err := json.Unmarshal(w.Request, &req); err != nil {
		return fmt.Errorf("replicated request does not parse: %w", err)
	}
	var recovered *joinopt.AdaptiveCheckpoint
	if len(w.Checkpoint) > 0 {
		ck, err := joinopt.DecodeCheckpoint(w.Checkpoint)
		if err != nil {
			// A damaged replica is detected, not trusted: re-run from
			// scratch — still deterministic, just slower.
			s.logf("cluster: replicated checkpoint of %s rejected (%v); re-running from scratch", w.ID, err)
		} else {
			recovered = ck
		}
	}
	var plan *joinopt.Plan
	if req.Mode == ModeExecute && req.Plan != nil {
		if p, err := req.Plan.plan(); err == nil {
			plan = &p
		}
	}
	seq := s.seq.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        w.ID,
		Tenant:    w.Tenant,
		Priority:  req.Priority,
		seq:       seq,
		req:       req,
		plan:      plan,
		reqWire:   w.Request,
		key:       CanonicalWorkloadKey(req),
		node:      s.selfNode(),
		ctx:       ctx,
		cancel:    cancel,
		events:    newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
		recovered: recovered,
	}
	s.storeJob(j)
	if s.opts.Durable != nil {
		s.journal(durable.Record{Seq: seq, Event: durable.EventSubmitted, JobID: j.ID, Tenant: j.Tenant, Request: w.Request})
		if recovered != nil {
			// Mark it started so a crash of THIS replica resumes from the
			// checkpoint instead of re-running from scratch.
			s.journal(durable.Record{Seq: seq, Event: durable.EventStarted, JobID: j.ID})
			s.opts.Durable.SaveCheckpoint(j.ID, w.Checkpoint)
		}
	}
	s.sched.forceSubmit(j)
	s.migrations[how].Inc()
	s.publishPool()
	s.logf("cluster: adopted job %s from %s (%s, checkpoint=%v)", j.ID, w.Origin, how, recovered != nil)
	return nil
}

// Handoff migrates this replica's drain-interrupted adaptive jobs to their
// next owners, checkpoint and all. Call it after Drain: drain-canceled
// adaptive runs hold their final checkpoint in memory, queued-then-
// drain-canceled jobs hold none and restart from scratch on the inheritor.
// It first waits, within ctx, for the standby outboxes to drain, so every
// message a job queued reaches its peer before that job's activate does —
// a checkpoint landing after the activate would leave the adopter a stale
// standby entry. Jobs the user explicitly canceled are never handed off —
// the cancel contract outlives the replica — and every terminal job it does
// not ship gets its standby entry retired again here, with Handoff waiting
// for those dones too before it returns, so none is lost to process exit.
// Returns the number of jobs handed off.
func (s *Service) Handoff(ctx context.Context) int {
	c := s.opts.Cluster
	if c == nil {
		return 0
	}
	if err := s.outbox.drained(ctx); err != nil {
		s.logf("cluster: standby messages still queued, handing off no jobs: %v", err)
		return 0
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()

	handed := 0
	for _, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		j.mu.Lock()
		state, ck := j.state, j.checkpoint
		mode := j.req.Mode
		drainCanceled := j.drainCanceled
		j.mu.Unlock()
		if mode != ModeAdaptive && mode != "" {
			continue
		}
		// Only drain-interrupted work moves. Every other terminal job —
		// done, failed, or canceled by the user (even long before this
		// drain; the store retains terminal jobs) — retires its standby
		// entry here again: a done that finish() queued may have failed,
		// and a stale entry left behind makes the survivor resurrect the
		// job once its origin is probed down. A drain-canceled job with no
		// checkpoint was queued when the drain landed: hand the bare
		// request over so the acceptance is still honoured.
		if state != StateCanceled || !drainCanceled {
			if state == StateDone || state == StateFailed || state == StateCanceled {
				s.retireStandby(j)
			}
			continue
		}
		var ckWire json.RawMessage
		if ck != nil {
			if wire, err := ck.MarshalJSON(); err == nil {
				ckWire = wire
			}
		}
		if j.reqWire == nil {
			continue
		}
		_, url, ok := c.StandbyTarget(j.key)
		if !ok {
			s.logf("cluster: no live peer to hand job %s to; it stays canceled here", j.ID)
			continue
		}
		if err := s.sendStandby(url, standbyWire{
			ID: j.ID, Tenant: j.Tenant, Origin: c.SelfName(),
			Request: j.reqWire, Checkpoint: ckWire, Activate: true,
		}); err != nil {
			s.logf("cluster: handing job %s to %s failed: %v", j.ID, url, err)
			continue
		}
		handed++
	}
	if err := s.outbox.drained(ctx); err != nil {
		s.logf("cluster: standby retirements still queued at the end of handoff: %v", err)
	}
	if handed > 0 {
		s.logf("cluster: handed %d interrupted jobs to their next owners", handed)
	}
	return handed
}

// StandbyCount returns the replicated peer jobs currently held (0 without
// a cluster).
func (s *Service) StandbyCount() int {
	if s.standby == nil {
		return 0
	}
	return s.standby.size()
}

// nodeJobID renders a job ID. Cluster IDs carry the replica's name
// ("n1-j000042") so any replica can route a lookup to the replica that
// created the job.
func (s *Service) nodeJobID(seq uint64) string {
	if c := s.opts.Cluster; c != nil {
		return fmt.Sprintf("%s-j%06d", c.SelfName(), seq)
	}
	return fmt.Sprintf("j%06d", seq)
}

// routeJobID resolves which peer a cluster job ID belongs to. ok is false
// for local, unparseable, or unknown-member IDs.
func (s *Service) routeJobID(id string) (url string, ok bool) {
	c := s.opts.Cluster
	if c == nil {
		return "", false
	}
	name, _, found := strings.Cut(id, "-")
	if !found || name == c.SelfName() {
		return "", false
	}
	url, known := c.PeerURL(name)
	if !known || c.MemberState(name) == cluster.StateDown {
		return "", false
	}
	return url, true
}

// selfNode returns this replica's member name ("" outside a cluster).
func (s *Service) selfNode() string {
	if c := s.opts.Cluster; c != nil {
		return c.SelfName()
	}
	return ""
}

// logf logs through the service's optional logger.
func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

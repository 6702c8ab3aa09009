package cluster

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"joinopt/internal/obs"
)

// Member health states. A suspect member still owns its workloads (one
// slow probe must not reshuffle the ring); a down member is routed around
// and its replicated jobs are migrated.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDown    = "down"
)

// Cluster metric families, published into the service's obs registry.
const (
	// MetricForwards counts jobs this replica routed to another (kind=
	// proxy|redirect|fallback — fallback is a forward that failed and was
	// served locally so availability beats placement).
	MetricForwards = "joinopt_cluster_forwards_total"
	// MetricProbes counts health probes by result (ok|fail).
	MetricProbes = "joinopt_cluster_probes_total"
	// MetricMigrations counts jobs this replica adopted from another via a
	// replicated checkpoint (how=takeover|handoff).
	MetricMigrations = "joinopt_cluster_migrations_total"
	// MetricOwnershipChanges counts ring-affecting member transitions
	// (a member going down or coming back), each of which remaps the dead
	// member's share of the key space.
	MetricOwnershipChanges = "joinopt_cluster_ownership_changes_total"
	// MetricMembers gauges the fleet by state (state=alive|suspect|down).
	MetricMembers = "joinopt_cluster_members"
	// MetricStandbyJobs gauges the replicated jobs this replica holds in
	// standby for peers.
	MetricStandbyJobs = "joinopt_cluster_standby_jobs"
)

// Member is one replica's identity plus its probed health.
type Member struct {
	Name string `json:"name"` // stable short name ("n0"), the job-ID prefix
	URL  string `json:"url"`
	Self bool   `json:"self,omitempty"`

	State    string `json:"state"`
	Failures int    `json:"failures,omitempty"` // consecutive probe failures
}

// Info is the GET /v1/cluster payload: the ring parameters and every
// member's probed state as this replica sees them.
type Info struct {
	Self        string   `json:"self"`
	VNodes      int      `json:"vnodes"`
	Members     []Member `json:"members"`
	StandbyJobs int      `json:"standby_jobs"`
	// Owner is the member owning the ?key= query parameter, when one was
	// given (routing introspection for operators and tests).
	Owner string `json:"owner,omitempty"`
}

// Cluster is one replica's membership view of the fleet: the static ring
// plus the probed health of every peer. The service layer consults it for
// routing (Owner), replication targets (StandbyTarget), and job-ID prefix
// naming (SelfName), and registers OnDown/OnUp hooks to migrate work.
type Cluster struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	log    *log.Logger

	selfName string
	nameOf   map[string]string // url → name
	urlOf    map[string]string // name → url

	mu      sync.Mutex
	health  map[string]*memberHealth // url → health (peers only, not self)
	onDown  []func(name string)
	onUp    []func(name string)
	started bool // probe loop launched; Stop only waits on doneCh if so

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	probesOK    *obs.Counter
	probesFail  *obs.Counter
	ownershipCh *obs.Counter
	metrics     *obs.Registry
}

type memberHealth struct {
	state    string
	failures int
}

// New builds a Cluster from a validated Config. Peers start alive — a
// replica booting before its peers must not immediately reroute their
// workloads; genuinely dead peers are discovered within DownAfter probes.
// Call Start to begin probing and Stop on shutdown. logger may be nil.
func New(cfg Config, m *obs.Registry, logger *log.Logger) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sorted := cfg.sortedPeers()
	ring, err := NewRing(sorted, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = log.New(noopWriter{}, "", 0)
	}
	if m == nil {
		m = obs.NewRegistry()
	}
	m.Describe(MetricForwards, "jobs routed to their owning replica, by kind")
	m.Describe(MetricProbes, "peer health probes, by result")
	m.Describe(MetricMigrations, "jobs adopted from another replica via a replicated checkpoint, by how")
	m.Describe(MetricOwnershipChanges, "ring-affecting member transitions (down or recovered)")
	m.Describe(MetricMembers, "fleet members by probed state")
	m.Describe(MetricStandbyJobs, "replicated peer jobs held in standby")

	c := &Cluster{
		cfg:         cfg,
		ring:        ring,
		client:      &http.Client{Timeout: cfg.ProbeTimeout},
		log:         logger,
		nameOf:      names(sorted),
		urlOf:       map[string]string{},
		health:      map[string]*memberHealth{},
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		probesOK:    m.Counter(obs.Series(MetricProbes, "result", "ok")),
		probesFail:  m.Counter(obs.Series(MetricProbes, "result", "fail")),
		ownershipCh: m.Counter(MetricOwnershipChanges),
		metrics:     m,
	}
	for url, name := range c.nameOf {
		c.urlOf[name] = url
		if url != cfg.Self {
			c.health[url] = &memberHealth{state: StateAlive}
		}
	}
	c.selfName = c.nameOf[cfg.Self]
	c.publishMembers()
	return c, nil
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }

// SelfName returns this replica's stable short name ("n0").
func (c *Cluster) SelfName() string { return c.selfName }

// Size returns the configured fleet size.
func (c *Cluster) Size() int { return len(c.urlOf) }

// PeerURL resolves a member name to its base URL.
func (c *Cluster) PeerURL(name string) (string, bool) {
	url, ok := c.urlOf[name]
	return url, ok
}

// OnDown registers a hook fired (from the probe loop) when a peer
// transitions to down; OnUp fires when a down peer recovers. Register
// before Start.
func (c *Cluster) OnDown(fn func(name string)) { c.onDown = append(c.onDown, fn) }

// OnUp registers a recovery hook. Register before Start.
func (c *Cluster) OnUp(fn func(name string)) { c.onUp = append(c.onUp, fn) }

// eligible reports whether a member (by URL) participates in routing: self
// always does, peers do unless probed down.
func (c *Cluster) eligible(url string) bool {
	if url == c.cfg.Self {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.health[url]
	return ok && h.state != StateDown
}

// Owner returns the name and URL of the replica owning a workload key,
// considering only members not probed down. Self is always eligible, so
// Owner never fails.
func (c *Cluster) Owner(key string) (name, url string) {
	u := c.ring.OwnerAmong(key, c.eligible)
	return c.nameOf[u], u
}

// StandbyTarget returns the replica that would inherit key if its current
// owner left — the replication target for the owner's checkpoints. ok is
// false when the fleet has no other live member to replicate to.
func (c *Cluster) StandbyTarget(key string) (name, url string, ok bool) {
	u := c.ring.Successor(key, c.eligible)
	if u == "" {
		return "", "", false
	}
	return c.nameOf[u], u, true
}

// MemberState returns a peer's probed state (self is always alive).
func (c *Cluster) MemberState(name string) string {
	url, ok := c.urlOf[name]
	if !ok {
		return ""
	}
	if url == c.cfg.Self {
		return StateAlive
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.health[url]; ok {
		return h.state
	}
	return ""
}

// Snapshot renders this replica's fleet view for /v1/cluster. standbyJobs
// is supplied by the service (it owns the standby store); key, when
// non-empty, additionally resolves an owner.
func (c *Cluster) Snapshot(standbyJobs int, key string) Info {
	info := Info{Self: c.selfName, VNodes: c.cfg.VNodes, StandbyJobs: standbyJobs}
	c.mu.Lock()
	for _, url := range c.ring.Members() {
		m := Member{Name: c.nameOf[url], URL: url, Self: url == c.cfg.Self, State: StateAlive}
		if h, ok := c.health[url]; ok {
			m.State, m.Failures = h.state, h.failures
		}
		info.Members = append(info.Members, m)
	}
	c.mu.Unlock()
	if key != "" {
		info.Owner, _ = c.Owner(key)
	}
	return info
}

// Client returns the HTTP client sized for intra-cluster calls.
func (c *Cluster) Client() *http.Client { return c.client }

// Start launches the probe loop. Probing is per-peer sequential within one
// tick (fleets are small); a full sweep shares one tick.
func (c *Cluster) Start() {
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.doneCh)
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop terminates the probe loop and waits for it to exit. Idempotent, and
// safe on a Cluster whose Start was never called (only the probe goroutine
// closes doneCh, so waiting on it would otherwise deadlock error paths and
// tests that construct but never start a Cluster).
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.doneCh
	}
}

// probeAll sweeps every peer once.
func (c *Cluster) probeAll() {
	for url := range c.health {
		select {
		case <-c.stopCh:
			return
		default:
		}
		c.probe(url)
	}
}

// probe checks one peer's /healthz and applies the state transition rules:
// consecutive failures walk alive → suspect (SuspectAfter) → down
// (DownAfter); one success snaps back to alive. Transitions in and out of
// down remap ring ownership and fire the registered hooks.
func (c *Cluster) probe(url string) {
	ok := c.probeOnce(url)
	if ok {
		c.probesOK.Inc()
	} else {
		c.probesFail.Inc()
	}

	c.mu.Lock()
	h := c.health[url]
	var wasDown, nowDown bool
	wasDown = h.state == StateDown
	if ok {
		h.failures = 0
		h.state = StateAlive
	} else {
		h.failures++
		switch {
		case h.failures >= c.cfg.DownAfter:
			h.state = StateDown
		case h.failures >= c.cfg.SuspectAfter:
			h.state = StateSuspect
		}
	}
	nowDown = h.state == StateDown
	c.mu.Unlock()
	c.publishMembers()

	name := c.nameOf[url]
	switch {
	case nowDown && !wasDown:
		c.log.Printf("cluster: peer %s (%s) is down; rerouting its workloads", name, url)
		c.ownershipCh.Inc()
		for _, fn := range c.onDown {
			fn(name)
		}
	case wasDown && !nowDown:
		c.log.Printf("cluster: peer %s (%s) recovered; restoring its workloads", name, url)
		c.ownershipCh.Inc()
		for _, fn := range c.onUp {
			fn(name)
		}
	}
}

// ReportAlive records out-of-band evidence that a peer is alive — e.g. a
// standby replication message it just sent us — resetting its probe state
// exactly like a successful probe, with the recovery hook if it had been
// marked down. Without this a peer falsely probed down (a slow /healthz
// under load) keeps replicating checkpoints into a standby store that no
// future down-transition would ever migrate: its real death later is not
// a transition, so the hook never fires and the entries are stranded.
func (c *Cluster) ReportAlive(name string) {
	url, ok := c.urlOf[name]
	if !ok || url == c.cfg.Self {
		return
	}
	c.mu.Lock()
	h, ok := c.health[url]
	if !ok {
		c.mu.Unlock()
		return
	}
	wasDown := h.state == StateDown
	h.failures = 0
	h.state = StateAlive
	c.mu.Unlock()
	c.publishMembers()
	if !wasDown {
		return
	}
	c.log.Printf("cluster: peer %s (%s) proved alive by its own traffic; restoring its workloads", name, url)
	c.ownershipCh.Inc()
	for _, fn := range c.onUp {
		fn(name)
	}
}

// probeOnce performs one /healthz request. It reads the response to EOF,
// so the client keeps the connection for the next probe.
func (c *Cluster) probeOnce(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	// The status alone says whether the peer is healthy.
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// publishMembers refreshes the per-state member gauges.
func (c *Cluster) publishMembers() {
	counts := map[string]int{StateAlive: 1} // self
	c.mu.Lock()
	for _, h := range c.health {
		counts[h.state]++
	}
	c.mu.Unlock()
	for _, st := range []string{StateAlive, StateSuspect, StateDown} {
		c.metrics.Gauge(obs.Series(MetricMembers, "state", st)).Set(float64(counts[st]))
	}
}

// String renders the fleet for logs.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{self=%s peers=%d vnodes=%d}", c.selfName, c.Size(), c.cfg.VNodes)
}

package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"joinopt/internal/obs"
)

// testFleet builds a two-member cluster where the peer is an httptest
// server whose /healthz can be flipped between 200 and dead.
func testFleet(t *testing.T, peerOK *atomic.Bool) (*Cluster, *httptest.Server) {
	t.Helper()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !peerOK.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	t.Cleanup(peer.Close)

	cfg := Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", peer.URL},
		VNodes:        16,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		SuspectAfter:  2,
		DownAfter:     4,
	}
	c, err := New(cfg, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, peer
}

// TestProbeTransitions drives a peer through alive → suspect → down →
// alive and checks the state machine, the hooks, and that routing
// eligibility follows.
func TestProbeTransitions(t *testing.T) {
	var peerOK atomic.Bool
	peerOK.Store(true)
	c, peer := testFleet(t, &peerOK)
	peerName := c.nameOf[peer.URL]

	var downs, ups atomic.Int64
	c.OnDown(func(name string) {
		if name == peerName {
			downs.Add(1)
		}
	})
	c.OnUp(func(name string) {
		if name == peerName {
			ups.Add(1)
		}
	})
	c.Start()
	defer c.Stop()

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.MemberState(peerName) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never reached state %q (now %q)", want, c.MemberState(peerName))
	}

	waitState(StateAlive)

	// Pick a key the peer owns while alive, to watch ownership move.
	var peerKey string
	for _, k := range syntheticKeys(200) {
		if _, url := c.Owner(k); url == peer.URL {
			peerKey = k
			break
		}
	}
	if peerKey == "" {
		t.Fatal("no key owned by peer")
	}

	peerOK.Store(false)
	waitState(StateDown)
	if got := downs.Load(); got < 1 {
		t.Errorf("OnDown fired %d times, want >= 1", got)
	}
	if name, _ := c.Owner(peerKey); name != c.SelfName() {
		t.Errorf("down peer still owns %q (owner %s)", peerKey, name)
	}
	// With only two members, a down peer leaves no standby target.
	if _, _, ok := c.StandbyTarget(peerKey); ok {
		t.Error("standby target exists with the only peer down")
	}

	peerOK.Store(true)
	waitState(StateAlive)
	if got := ups.Load(); got < 1 {
		t.Errorf("OnUp fired %d times, want >= 1", got)
	}
	if _, url := c.Owner(peerKey); url != peer.URL {
		t.Errorf("recovered peer did not regain %q", peerKey)
	}
}

// TestSuspectKeepsOwnership: a suspect member must keep routing its
// workloads — only down reroutes.
func TestSuspectKeepsOwnership(t *testing.T) {
	var peerOK atomic.Bool
	peerOK.Store(true)
	c, peer := testFleet(t, &peerOK)
	peerName := c.nameOf[peer.URL]

	var peerKey string
	for _, k := range syntheticKeys(200) {
		if _, url := c.Owner(k); url == peer.URL {
			peerKey = k
			break
		}
	}
	peerOK.Store(false)
	// Probe by hand: exactly SuspectAfter failures.
	for i := 0; i < c.cfg.SuspectAfter; i++ {
		c.probe(peer.URL)
	}
	if got := c.MemberState(peerName); got != StateSuspect {
		t.Fatalf("state after %d failures = %s, want suspect", c.cfg.SuspectAfter, got)
	}
	if _, url := c.Owner(peerKey); url != peer.URL {
		t.Error("suspect peer lost ownership; only down should reroute")
	}
}

// TestReportAlive: out-of-band traffic from a peer resets its probe state
// like a successful probe — a down peer fires OnUp and regains ownership,
// and accumulated failures are wiped so the next real death is a fresh
// transition (the property standby acceptance depends on: entries must
// never be stranded behind a stale false-down).
func TestReportAlive(t *testing.T) {
	var peerOK atomic.Bool
	c, peer := testFleet(t, &peerOK) // peerOK false: every probe fails
	peerName := c.nameOf[peer.URL]

	var ups atomic.Int64
	c.OnUp(func(name string) {
		if name == peerName {
			ups.Add(1)
		}
	})
	for i := 0; i < c.cfg.DownAfter; i++ {
		c.probe(peer.URL)
	}
	if got := c.MemberState(peerName); got != StateDown {
		t.Fatalf("state after %d failures = %s, want down", c.cfg.DownAfter, got)
	}

	c.ReportAlive(peerName)
	if got := c.MemberState(peerName); got != StateAlive {
		t.Fatalf("state after ReportAlive = %s, want alive", got)
	}
	if got := ups.Load(); got != 1 {
		t.Errorf("OnUp fired %d times, want 1", got)
	}

	// Failures were reset: going down again takes DownAfter fresh probes.
	for i := 0; i < c.cfg.DownAfter-1; i++ {
		c.probe(peer.URL)
	}
	if got := c.MemberState(peerName); got == StateDown {
		t.Errorf("peer down after %d failures; ReportAlive did not reset the count", c.cfg.DownAfter-1)
	}
	c.probe(peer.URL)
	if got := c.MemberState(peerName); got != StateDown {
		t.Errorf("peer not down after %d fresh failures (state %s)", c.cfg.DownAfter, got)
	}

	// Unknown names and self are ignored.
	c.ReportAlive("nope")
	c.ReportAlive(c.SelfName())
}

// TestSnapshot sanity-checks the /v1/cluster payload fields.
func TestSnapshot(t *testing.T) {
	var peerOK atomic.Bool
	peerOK.Store(true)
	c, peer := testFleet(t, &peerOK)

	info := c.Snapshot(3, "HQ-EX_n1000-0_s1_k0")
	if info.Self != c.SelfName() || info.VNodes != 16 || info.StandbyJobs != 3 {
		t.Errorf("snapshot header: %+v", info)
	}
	if len(info.Members) != 2 {
		t.Fatalf("members: %+v", info.Members)
	}
	if info.Owner == "" {
		t.Error("?key= owner not resolved")
	}
	var selfSeen bool
	for _, m := range info.Members {
		if m.Self {
			selfSeen = true
		}
		if m.URL == peer.URL && m.Name == "" {
			t.Error("peer member missing name")
		}
	}
	if !selfSeen {
		t.Error("no member marked self")
	}
}

// TestMetrics: probes and member gauges land in the shared registry.
func TestMetrics(t *testing.T) {
	var peerOK atomic.Bool
	peerOK.Store(true)
	reg := obs.NewRegistry()
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	defer peer.Close()
	cfg := Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", peer.URL},
		ProbeInterval: 10 * time.Millisecond,
	}
	c, err := New(cfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.probe(peer.URL)
	if got := reg.Counter(obs.Series(MetricProbes, "result", "ok")).Value(); got < 1 {
		t.Errorf("probes ok = %v, want >= 1", got)
	}
	if got := reg.Gauge(obs.Series(MetricMembers, "state", StateAlive)).Value(); got != 2 {
		t.Errorf("alive members gauge = %v, want 2", got)
	}
}

// TestStopWithoutStart: Stop on a Cluster whose probe loop never launched
// must return instead of waiting forever on the channel only that loop
// closes — error paths and tests construct Clusters they never Start.
func TestStopWithoutStart(t *testing.T) {
	cfg := Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", "http://peer.invalid:2"},
		ProbeInterval: 10 * time.Millisecond,
	}
	c, err := New(cfg, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		c.Stop()
		c.Stop() // still idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked without Start")
	}
}

// TestProbesReuseConnections: a probe reads the /healthz response to EOF,
// so the cluster client keeps its connection to the peer. Closed unread,
// every response costs the next probe a fresh TCP connection.
func TestProbesReuseConnections(t *testing.T) {
	var conns atomic.Int64
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	}))
	peer.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	peer.Start()
	t.Cleanup(peer.Close)

	cfg := Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", peer.URL},
		ProbeInterval: time.Second,
		ProbeTimeout:  10 * time.Second,
	}
	c, err := New(cfg, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !c.probeOnce(peer.URL) {
			t.Fatalf("probe %d failed", i)
		}
	}
	if n := conns.Load(); n > 2 {
		t.Errorf("50 probes opened %d connections, want at most 2", n)
	}
}

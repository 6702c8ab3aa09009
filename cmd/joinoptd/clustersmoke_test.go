package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/service"
)

// freePort reserves a listening port and releases it for the daemon to
// claim. Cluster flags need the address before the process exists, so :0
// assignment cannot be used here.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// fullResult fetches a job's complete result payload, tolerating the
// transient failures of a migrating fleet: connection errors (the poll
// may 307 to a dead origin before the survivor marks it down) and 404s
// (the survivor has detected the death but not yet adopted).
func fullResult(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var out struct {
			State  string         `json:"state"`
			Error  string         `json:"error"`
			Result map[string]any `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch out.State {
		case "done":
			return out.Result
		case "failed":
			t.Fatalf("job %s failed: %s", id, out.Error)
		}
		// canceled is transient here: the origin checkpointed it on the way
		// down and the survivor will finish it.
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %s", id, timeout)
	return nil
}

// TestClusterSmoke is the fleet kill-and-migrate harness (`make
// cluster-smoke`): boot two real daemons as a cluster, submit one pipelined
// adaptive job through the NON-owning replica (proving ownership
// forwarding), wait for the owner's checkpoints to replicate, SIGKILL the
// owner mid-run, and require the survivor to adopt and finish the job —
// with the result bit-identical to a single-node reference run, and the
// migration visible in joinopt_cluster_migrations_total.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary three times")
	}
	bin := buildDaemon(t)
	job := map[string]any{
		"tau_g":        8,
		"tau_b":        400,
		"exec_workers": 2,
		"tuples":       -1,
		"workload":     map[string]any{"num_docs": 5000, "seed": 21},
	}

	// Reference: the same job on a solo daemon, start to finish.
	solo := startDaemon(t, bin, "-service-workers", "1")
	refID := solo.submit(t, job)
	ref := fullResult(t, solo.base, refID, 120*time.Second)
	solo.cmd.Process.Kill()

	// The fleet. Ports must be known up front — every replica needs the
	// full peer list before any of them exists.
	portA, portB := freePort(t), freePort(t)
	urlA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	urlB := fmt.Sprintf("http://127.0.0.1:%d", portB)
	peersCSV := urlA + "," + urlB
	clusterFlags := func(self string, port int) []string {
		return []string{
			"-listen", fmt.Sprintf("127.0.0.1:%d", port),
			"-self", self, "-peers", peersCSV,
			"-service-workers", "1",
			"-probe-interval", "100ms", "-down-after", "3",
			"-state-dir", t.TempDir(),
		}
	}
	a := startDaemon(t, bin, clusterFlags(urlA, portA)...)
	b := startDaemon(t, bin, clusterFlags(urlB, portB)...)
	daemons := map[string]*daemon{urlA: a, urlB: b}

	// Compute ownership the same way the daemons do: the ring over the
	// sorted peer URLs, keyed by the canonical workload key.
	ring, err := cluster.NewRing([]string{urlA, urlB}, 64)
	if err != nil {
		t.Fatal(err)
	}
	req := service.JobRequest{
		TauG: 8, TauB: 400, ExecWorkers: 2, Tuples: -1,
		Workload: service.WorkloadSpec{NumDocs: 5000, Seed: 21},
	}
	key := service.CanonicalWorkloadKey(req)
	ownerURL := ring.OwnerAmong(key, nil)
	survivorURL := ring.Successor(key, nil)
	owner, survivor := daemons[ownerURL], daemons[survivorURL]
	names := map[string]string{}
	sorted := []string{urlA, urlB}
	if sorted[0] > sorted[1] {
		sorted[0], sorted[1] = sorted[1], sorted[0]
	}
	for i, u := range sorted {
		names[u] = fmt.Sprintf("n%d", i)
	}

	// Submit through the replica that does NOT own the workload: the fleet
	// must route it to the owner transparently.
	id := survivor.submit(t, job)
	if want := names[ownerURL] + "-"; !strings.HasPrefix(id, want) {
		t.Fatalf("job ID %q not created by the owner (want prefix %q)", id, want)
	}
	if fw := metricSum(survivor.metrics(t), "joinopt_cluster_forwards_total"); fw < 1 {
		t.Errorf("submission through the non-owner recorded no forward")
	}

	// Checkpoint replication is synchronous with checkpointing, so once the
	// survivor holds a standby entry the kill cannot outrun the state.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if metricSum(survivor.metrics(t), "joinopt_cluster_standby_jobs") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivor never received a standby replica")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := owner.cmd.Process.Kill(); err != nil { // SIGKILL mid-run
		t.Fatal(err)
	}
	owner.cmd.Wait()

	got := fullResult(t, survivor.base, id, 120*time.Second)
	if mig := metricSum(survivor.metrics(t), "joinopt_cluster_migrations_total"); mig < 1 {
		t.Errorf("joinopt_cluster_migrations_total = %g on the survivor, want >= 1", mig)
	}

	// Bit-identity: everything except timing matches the reference exactly;
	// timing obeys the Time + ΣCacheSaved cache-warmth invariant.
	for _, field := range []string{"good", "bad", "plans", "tuples", "docs_processed", "queries"} {
		if !reflect.DeepEqual(got[field], ref[field]) {
			t.Errorf("migrated result field %q differs:\n got %v\n ref %v", field, got[field], ref[field])
		}
	}
	sumTime := func(r map[string]any) float64 {
		total, _ := r["time"].(float64)
		if cs, ok := r["cache_saved"].([]any); ok {
			for _, v := range cs {
				f, _ := v.(float64)
				total += f
			}
		}
		return total
	}
	refT, gotT := sumTime(ref), sumTime(got)
	if math.Abs(refT-gotT) > 1e-6*math.Max(1, math.Abs(refT)) {
		t.Errorf("Time+ΣCacheSaved differs: got %g, ref %g", gotT, refT)
	}

	// The survivor drains cleanly.
	if err := survivor.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- survivor.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("survivor exited uncleanly: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("survivor did not drain after SIGTERM")
	}
	fmt.Fprintf(os.Stderr, "cluster-smoke: ok, job %s migrated %s → %s and finished bit-identical (good=%v)\n",
		id, names[ownerURL], names[survivorURL], got["good"])
}

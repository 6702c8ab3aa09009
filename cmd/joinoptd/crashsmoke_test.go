package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemon is one booted joinoptd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "joinoptd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building daemon: %v\n%s", err, out)
	}
	return bin
}

// startDaemon boots the binary on a random port and waits for the
// "listening on" line. The rest of stderr is drained in the background so
// the child never blocks on a full pipe.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address (%v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr)
	return &daemon{cmd: cmd, base: "http://" + addr}
}

func (d *daemon) submit(t *testing.T, req map[string]any) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, b)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// awaitResult polls a job's result endpoint until it reports done.
func (d *daemon) awaitResult(t *testing.T, id string, timeout time.Duration) (good int, plans int) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			State  string `json:"state"`
			Error  string `json:"error"`
			Result struct {
				Good  int      `json:"good"`
				Plans []string `json:"plans"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch out.State {
		case "done":
			return out.Result.Good, len(out.Result.Plans)
		case "failed", "canceled":
			t.Fatalf("job %s finished %s: %s", id, out.State, out.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %s", id, timeout)
	return 0, 0
}

func (d *daemon) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestCrashSmoke is the kill-and-recover harness (`make crash-smoke`): boot
// the real daemon with a state dir, get one pipelined adaptive job mid-run
// (its first checkpoint snapshot on disk) with a second job queued behind
// it, SIGKILL the process mid-run, restart it against the same directory,
// and require both jobs to finish — the interrupted one resumed from the
// snapshot, the queued one re-enqueued — with the recovery and
// extraction-cache counters visible in /metrics and the NDJSON event stream
// intact.
func TestCrashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the daemon binary twice")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()

	a := startDaemon(t, bin, "-service-workers", "1", "-state-dir", dir)
	job := map[string]any{
		"tau_g":        8,
		"tau_b":        400,
		"exec_workers": 2,
		"workload":     map[string]any{"num_docs": 1500, "seed": 21},
	}
	running := a.submit(t, job)
	queued := a.submit(t, job)

	// Wait for the running job's first persisted checkpoint, then yank the
	// power. The queued job sits behind the single worker, so it has only a
	// journaled submission.
	ckpt := filepath.Join(dir, "snapshots", running+".ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint snapshot at %s", ckpt)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := a.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no goodbye
		t.Fatal(err)
	}
	a.cmd.Wait()

	b := startDaemon(t, bin, "-service-workers", "1", "-state-dir", dir)
	for _, id := range []string{running, queued} {
		if good, plans := b.awaitResult(t, id, 120*time.Second); good <= 0 || plans == 0 {
			t.Fatalf("recovered job %s finished with implausible result (good=%d plans=%d)", id, good, plans)
		}
	}

	mb := b.metrics(t)
	recovered := metricSum(mb, "joinopt_jobs_recovered_total")
	if recovered != 2 {
		t.Errorf("joinopt_jobs_recovered_total sums to %g, want 2\n%s", recovered, grepLines(mb, "joinopt_jobs_recovered"))
	}
	if !strings.Contains(mb, `joinopt_jobs_recovered_total{how="requeued"} 1`) &&
		!strings.Contains(mb, `joinopt_jobs_recovered_total{how="completed"} 2`) {
		t.Errorf("queued job was not re-enqueued:\n%s", grepLines(mb, "joinopt_jobs_recovered"))
	}
	// The restarted daemon re-extracts against the disk tier the first boot
	// warmed: cache hits must show up in the existing counter family.
	hits := metricSum(mb, "joinopt_extract_cache_hits_total")
	if hits <= 0 {
		t.Errorf("restart saw no extraction-cache hits; disk tier did not warm the cache\n%s",
			grepLines(mb, "joinopt_extract_cache"))
	}

	// The NDJSON event stream still works after recovery: a re-run job's
	// trace replays as parseable JSON lines.
	resp, err := http.Get(b.base + "/v1/jobs/" + queued + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(events), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("recovered job's event stream carried only %d lines", len(lines))
	}
	for _, line := range lines {
		var e map[string]any
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("event line %q is not JSON: %v", line, err)
		}
	}

	// Clean shutdown of the restarted daemon.
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("restarted daemon exited uncleanly: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("restarted daemon did not drain after SIGTERM")
	}
	fmt.Fprintf(os.Stderr, "crash-smoke: ok, %g jobs recovered, %g cache hits after restart\n", recovered, hits)
}

// metricSum sums every series of a metric family in a Prometheus text
// exposition (all label combinations).
func metricSum(exposition, family string) float64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

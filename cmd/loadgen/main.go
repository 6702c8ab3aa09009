// Command loadgen drives a running joinoptd closed-loop: each of -clients
// concurrent clients submits a job, follows it to completion, and submits
// the next. 429 rejections are honoured by sleeping out the Retry-After
// hint — together with the daemon's admission control this forms the
// closed-loop backpressure cycle.
//
//	joinoptd -listen :8080 &
//	loadgen -addr localhost:8080 -clients 8 -jobs 64 -tenants 2
//
// Against a fleet, -targets takes every replica; a 503 (draining replica)
// or a connection error rotates the client to the next target instead of
// failing the job, so a rolling restart shows up as rebalanced load, not
// errors:
//
//	loadgen -targets localhost:8081,localhost:8082 -clients 8 -jobs 64
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/service"
)

// summary is the machine-readable run report behind -json.
type summary struct {
	Clients       int              `json:"clients"`
	Tenants       int              `json:"tenants"`
	JobsCompleted int64            `json:"jobs_completed"`
	JobsFailed    int64            `json:"jobs_failed"`
	Rejected429   int64            `json:"rejected_429"`
	Rejected503   int64            `json:"rejected_503"`
	Rate429       float64          `json:"rate_429"` // 429s per submission attempt
	ElapsedSec    float64          `json:"elapsed_sec"`
	JobsPerSec    float64          `json:"jobs_per_sec"`
	LatencyP50Ms  float64          `json:"latency_p50_ms"` // end-to-end submit→done
	LatencyP99Ms  float64          `json:"latency_p99_ms"`
	GoodTuples    int64            `json:"good_tuples"`
	BadTuples     int64            `json:"bad_tuples"`
	PerTarget     map[string]int64 `json:"per_target,omitempty"` // accepted submissions by target
}

// targetSet is the rotation of daemon base URLs a client walks when one
// pushes back (429/503) or drops the connection.
type targetSet struct {
	bases  []string
	counts []atomic.Int64 // accepted submissions per base
}

func newTargetSet(addrCSV string) (*targetSet, error) {
	ts := &targetSet{}
	for _, a := range strings.Split(addrCSV, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		ts.bases = append(ts.bases, strings.TrimRight(a, "/"))
	}
	if len(ts.bases) == 0 {
		return nil, fmt.Errorf("no targets")
	}
	ts.counts = make([]atomic.Int64, len(ts.bases))
	return ts, nil
}

func (ts *targetSet) perTarget() map[string]int64 {
	m := make(map[string]int64, len(ts.bases))
	for i, b := range ts.bases {
		m[b] = ts.counts[i].Load()
	}
	return m
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "joinoptd address (single target)")
		targets  = flag.String("targets", "", "comma-separated joinoptd addresses; rotate on 429/503/conn-error (overrides -addr)")
		clients  = flag.Int("clients", 4, "concurrent closed-loop clients")
		jobs     = flag.Int("jobs", 32, "total jobs to submit")
		tenants  = flag.Int("tenants", 1, "spread jobs round-robin over this many tenants")
		docs     = flag.Int("docs", 500, "workload documents per database")
		seed     = flag.Int64("seed", 1, "workload generation seed")
		tauG     = flag.Int("taug", 16, "per-job requirement τg")
		tauB     = flag.Int("taub", 160, "per-job requirement τb")
		mode     = flag.String("mode", "adaptive", "job mode: adaptive|optimize")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-job completion timeout")
		jsonPath = flag.String("json", "", "write a JSON summary (p50/p99 latency, 429 rate, completions) to this file ('-' = stdout)")
	)
	flag.Parse()

	csv := *targets
	if csv == "" {
		csv = *addr
	}
	ts, err := newTargetSet(csv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	var (
		next        atomic.Int64
		done        atomic.Int64
		failed      atomic.Int64
		rejected    atomic.Int64
		unavailable atomic.Int64
		good, bad   atomic.Int64
		wg          sync.WaitGroup

		latMu     sync.Mutex
		latencies []float64 // ms, completed jobs only
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(*jobs) {
					return
				}
				req := service.JobRequest{
					Tenant: fmt.Sprintf("tenant-%d", int(n)%*tenants),
					Mode:   *mode,
					TauG:   *tauG,
					TauB:   *tauB,
					Workload: service.WorkloadSpec{
						NumDocs: *docs,
						Seed:    *seed,
					},
				}
				jobStart := time.Now()
				res, err := runJob(ts, c, req, *timeout, &rejected, &unavailable)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: job %d: %v\n", n, err)
					failed.Add(1)
					continue
				}
				latMu.Lock()
				latencies = append(latencies, float64(time.Since(jobStart))/float64(time.Millisecond))
				latMu.Unlock()
				done.Add(1)
				good.Add(int64(res.Good))
				bad.Add(int64(res.Bad))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("loadgen: %d done, %d failed, %d retried-after-429, %d retried-after-503, %.1f jobs/s, %d good / %d bad tuples total\n",
		done.Load(), failed.Load(), rejected.Load(), unavailable.Load(),
		float64(done.Load())/elapsed.Seconds(), good.Load(), bad.Load())

	if *jsonPath != "" {
		attempts := rejected.Load() + done.Load() + failed.Load()
		s := summary{
			Clients:       *clients,
			Tenants:       *tenants,
			JobsCompleted: done.Load(),
			JobsFailed:    failed.Load(),
			Rejected429:   rejected.Load(),
			Rejected503:   unavailable.Load(),
			ElapsedSec:    elapsed.Seconds(),
			JobsPerSec:    float64(done.Load()) / elapsed.Seconds(),
			LatencyP50Ms:  percentile(latencies, 0.50),
			LatencyP99Ms:  percentile(latencies, 0.99),
			GoodTuples:    good.Load(),
			BadTuples:     bad.Load(),
			PerTarget:     ts.perTarget(),
		}
		if attempts > 0 {
			s.Rate429 = float64(rejected.Load()) / float64(attempts)
		}
		if err := writeSummary(*jsonPath, s); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// percentile returns the nearest-rank q-th percentile of xs in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func writeSummary(path string, s summary) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runJob submits one job — retrying 429s per the Retry-After hint, rotating
// to the next target on 503 (draining) or a connection error — then polls it
// to completion. Polls hit the target that accepted the submission; cluster
// replicas 307-redirect job IDs they don't hold, and http.Get follows.
func runJob(ts *targetSet, client int, req service.JobRequest, timeout time.Duration, rejected, unavailable *atomic.Int64) (*service.JobResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)

	var id string
	var base string
	ti := client % len(ts.bases) // spread clients over the fleet
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("timed out waiting for admission")
		}
		base = ts.bases[ti%len(ts.bases)]
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			// Target gone (restart, crash): try the next one.
			ti++
			unavailable.Add(1)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining: same treatment as 429 — back off — but move to the
			// next target, since this one will not come back for this run.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ti++
			unavailable.Add(1)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected.Add(1)
			ti++ // another replica may have queue headroom right now
			if time.Now().Add(wait).After(deadline) {
				return nil, fmt.Errorf("timed out waiting for admission")
			}
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		var st service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		id = st.ID
		ts.counts[ti%len(ts.bases)].Add(1)
		break
	}

	pollMiss := 0
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
		if err != nil {
			// The accepting target died; any surviving replica can route (or
			// now owns) the job. Rotate and keep polling.
			ti++
			base = ts.bases[ti%len(ts.bases)]
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusAccepted {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode == http.StatusNotFound && pollMiss < 50 {
			// A migrating job can be momentarily unknown everywhere (origin
			// dead, successor not yet adopted): poll through the gap.
			pollMiss++
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ti++
			base = ts.bases[ti%len(ts.bases)]
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(b))
		}
		var out struct {
			State  string             `json:"state"`
			Error  string             `json:"error"`
			Result *service.JobResult `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if out.State != service.StateDone {
			return nil, fmt.Errorf("job %s %s: %s", id, out.State, out.Error)
		}
		return out.Result, nil
	}
	return nil, fmt.Errorf("job %s: timed out", id)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"joinopt"
	"joinopt/internal/cluster"
	"joinopt/internal/service"
)

// opTimeout bounds one fleet job from its POST to the read of its result.
const opTimeout = 60 * time.Second

// fleet drives fleet-2r: two joinoptd replicas started with default flags
// plus -self/-peers naming each other, and one client with two callers in a
// closed loop. Submissions alternate between the replicas, so about half
// are proxied to the workload's owner.
//
// The replicas run without -state-dir. The benchmark may write only inside
// its checkout, which sits on a virtual disk here: over six interleaved
// pairs of runs, state dirs on it cut throughput by a quarter and widened
// the run-to-run spread of latency_p50_ms from 9% to 35%, past any usable
// bound. The durable layer is timed from outside instead, by the traced
// run's direct calls on a store in the checkout.
type fleet struct {
	bin      string
	root     string // the run's output dir, holding the durable probe store
	docs     int
	seed     int64
	portBase int
	probeN   int // documents per side in the direct layer calls
	rows     []joinopt.Requirement

	ports      [2]int
	daemons    [2]*daemon
	specs      []fleetSpec
	infeasible map[fleetJob]bool // adaptive (spec, row) pairs with no feasible plan
	jobs       []fleetJob
	check      *checker
	clients    [2]*fleetClient

	mu            sync.Mutex
	resultPayload string // the latest job result, sizing the snapshot probe

	// The replicas keep every finished job's event log, so their memory
	// grows with the jobs a run completes. Reading the peak after a fixed
	// number of timed jobs keeps max_rss_mb from moving with throughput.
	rssAfter  int
	completed atomic.Int64
	rss       atomic.Value // float64, read once rssAfter jobs completed
}

// fleetSpec is one workload spec: its corpus seed, whether it keeps the
// default extraction cache or disables it, and the replica owning it on the
// ring.
type fleetSpec struct {
	Seed  int64 `json:"seed"`
	Cache bool  `json:"cache"`
	Owner int   `json:"owner"`
}

type fleetJob struct {
	spec, row int
	optimize  bool
}

func newFleet(sc scale, seed int64, bin, root string) *fleet {
	f := &fleet{bin: bin, root: root, docs: sc.fleetDocs, seed: seed, portBase: sc.portBase, probeN: sc.probeDocs,
		rows: tableRows(sc.fleetTauG), check: newChecker(), rssAfter: sc.rssAfter}
	for i := range f.clients {
		f.clients[i] = newFleetClient()
	}
	return f
}

func (f *fleet) workload(s fleetSpec) service.WorkloadSpec {
	w := service.WorkloadSpec{Relations: [2]string{"HQ", "EX"}, NumDocs: f.docs, Seed: s.Seed}
	if !s.Cache {
		w.CacheBytes = -1
	}
	return w
}

func (f *fleet) callers() int { return len(f.clients) }

// setup starts both replicas (stopping the previous pair, which must drain
// cleanly), picks the workload specs on the first set-up, and runs the
// warm-up pass: every (spec, row) once in adaptive mode and every spec once
// in optimize mode. The first warm-up also finds the rows a spec's corpus
// has no feasible plan for; the job cycle leaves them out, as the
// optimizer's documented answer to them is a failed job.
func (f *fleet) setup(ctx context.Context, tr *tracer) error {
	if err := f.stopDaemons(); err != nil {
		return err
	}
	if f.ports == [2]int{} {
		p, err := freePorts(f.portBase)
		if err != nil {
			return err
		}
		f.ports = p
	}
	urls := make([]string, 2)
	for i, p := range f.ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	for i := range f.daemons {
		d, err := startDaemon(f.bin, f.ports[i], urls[i], strings.Join(urls, ","))
		if err != nil {
			return err
		}
		f.daemons[i] = d
	}
	for _, d := range f.daemons {
		if err := d.ready(ctx, f.clients[0].http); err != nil {
			return err
		}
	}
	if f.specs == nil {
		if err := f.pickSpecs(ctx); err != nil {
			return err
		}
	}
	first := f.infeasible == nil
	if first {
		f.infeasible = map[fleetJob]bool{}
	}
	var warm []fleetJob
	for r := range f.rows {
		for s := range f.specs {
			if j := (fleetJob{spec: s, row: r}); !f.infeasible[j] {
				warm = append(warm, j)
			}
		}
	}
	for s := range f.specs {
		warm = append(warm, fleetJob{spec: s, optimize: true})
	}
	// The first len(specs) jobs build the workloads on their owners.
	builds := len(f.specs)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(f.clients))
	for c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(warm) {
					return
				}
				start := time.Now()
				r := f.do(ctx, c, i%2, warm[i], nil)
				if r.infeasible && first && !warm[i].optimize {
					mu.Lock()
					f.infeasible[warm[i]] = true
					mu.Unlock()
					continue
				}
				if r.failed {
					errs[c] = fmt.Errorf("warm-up job %d (spec %d, τg=%d): %s", i, warm[i].spec, f.rows[warm[i].row].TauG, r.why)
					return
				}
				if i < builds && tr != nil {
					tr.add(0, 0, "workload.build", tr.at(start), tr.now())
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if first {
		f.jobs = f.sequence()
	}
	return nil
}

// pickSpecs takes the first corpus seeds (1, 2, 3, …) that give each
// replica one cached and one cache-free spec, as GET /v1/cluster?key=
// reports ownership. The corpora are the same on every benchmark seed:
// corpora drawn from the benchmark seed moved model_time_per_op by 15%
// across five seeds, more than the noise the bounds allow.
func (f *fleet) pickSpecs(ctx context.Context) error {
	names := map[string]int{}
	for i, d := range f.daemons {
		names[d.name] = i
	}
	var picked [2][2]*fleetSpec // [owner][cache-free]
	for i := int64(1); i <= 256; i++ {
		s := fleetSpec{Seed: i}
		key := service.CanonicalWorkloadKey(service.JobRequest{Workload: f.workload(s)})
		var info cluster.Info
		if err := f.clients[0].getJSON(ctx, f.daemons[0].url+"/v1/cluster?key="+url.QueryEscape(key), &info); err != nil {
			return fmt.Errorf("ownership of spec seed %d: %w", s.Seed, err)
		}
		owner, ok := names[info.Owner]
		if !ok {
			return fmt.Errorf("ownership of spec seed %d: unknown owner %q", s.Seed, info.Owner)
		}
		s.Owner = owner
		for kind := 0; kind < 2; kind++ {
			if picked[owner][kind] == nil {
				s.Cache = kind == 0
				picked[owner][kind] = &s
				break
			}
		}
		if picked[0][1] != nil && picked[1][1] != nil {
			f.specs = []fleetSpec{*picked[0][0], *picked[1][0], *picked[0][1], *picked[1][1]}
			return nil
		}
	}
	return fmt.Errorf("no spec seeds split ownership two and two")
}

// sequence is the seeded job cycle: a permutation of every feasible
// (spec, row) pair in adaptive mode, with an optimize job of a random pair
// after every ninth.
func (f *fleet) sequence() []fleetJob {
	rng := rand.New(rand.NewSource(f.seed))
	var adaptive []fleetJob
	for s := range f.specs {
		for r := range f.rows {
			if j := (fleetJob{spec: s, row: r}); !f.infeasible[j] {
				adaptive = append(adaptive, j)
			}
		}
	}
	rng.Shuffle(len(adaptive), func(i, j int) { adaptive[i], adaptive[j] = adaptive[j], adaptive[i] })
	var out []fleetJob
	for i, j := range adaptive {
		out = append(out, j)
		if (i+1)%9 == 0 {
			o := adaptive[rng.Intn(len(adaptive))]
			o.optimize = true
			out = append(out, o)
		}
	}
	return out
}

func (f *fleet) op(ctx context.Context, caller, i int, tr *tracer) opResult {
	r := f.do(ctx, caller, i%2, f.jobs[i%len(f.jobs)], tr)
	if !r.failed && f.completed.Add(1) == int64(f.rssAfter) {
		if mb, err := f.daemonsRSSMB(); err == nil {
			f.rss.Store(mb)
		}
	}
	return r
}

// do runs one job through replica target: POST it, follow its /events
// stream to the end (the job's completion), then read its result.
func (f *fleet) do(ctx context.Context, caller, target int, job fleetJob, tr *tracer) opResult {
	c := f.clients[caller]
	d := f.daemons[target]
	spec := f.specs[job.spec]
	row := f.rows[job.row]
	req := service.JobRequest{Workload: f.workload(spec), Mode: service.ModeAdaptive, TauG: row.TauG, TauB: row.TauB}
	if job.optimize {
		req.Mode = service.ModeOptimize
	}
	body, err := json.Marshal(req)
	if err != nil {
		return opResult{failed: true, why: err.Error()}
	}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	redirects := c.redirects

	start := time.Now()
	var r opResult
	fail := func(why string) opResult {
		r.failed, r.why = true, why
		r.latency = time.Since(start)
		return r
	}
	var st service.JobStatus
	code, err := c.post(ctx, d.url+"/v1/jobs", body, &st)
	posted := time.Now()
	switch {
	case err != nil:
		return fail(err.Error())
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		r.refused = true
		return fail(fmt.Sprintf("submit refused: HTTP %d", code))
	case code != http.StatusAccepted:
		return fail(fmt.Sprintf("submit: HTTP %d", code))
	}
	r.submit = posted.Sub(start)
	r.proxied = st.Node != d.name

	var stm *stamper
	if tr != nil {
		stm = &stamper{tr: tr}
	}
	events, err := c.stream(ctx, d.url+"/v1/jobs/"+st.ID+"/events", stm)
	if err != nil {
		return fail(err.Error())
	}
	var out struct {
		State  string             `json:"state"`
		Error  string             `json:"error"`
		Result *service.JobResult `json:"result"`
	}
	raw, err := c.getText(ctx, d.url+"/v1/jobs/"+st.ID+"/result")
	if err == nil {
		err = json.Unmarshal([]byte(raw), &out)
	}
	if err != nil {
		return fail(err.Error())
	}
	end := time.Now()
	r.latency = end.Sub(start)
	r.events = events
	r.redirects = c.redirects - redirects
	if out.State != service.StateDone || out.Result == nil {
		r.infeasible = strings.Contains(out.Error, "no feasible plan")
		return fail(fmt.Sprintf("job %s ended %s: %s", st.ID, out.State, out.Error))
	}
	res := out.Result
	f.mu.Lock()
	f.resultPayload = raw
	f.mu.Unlock()
	if len(res.Plans) == 0 {
		r.mismatch = true
		return fail(fmt.Sprintf("job %s: empty plan list", st.ID))
	}
	fp := jobFingerprint(res)
	// Cached specs' plans follow cache warmth, so only cache-free specs
	// must repeat their first output exactly, on any replica and hop.
	if !spec.Cache && !f.check.match(fmt.Sprintf("%s/%d/%d", req.Mode, job.spec, job.row), fp) {
		r.mismatch = true
		return fail(fmt.Sprintf("job %s: output differs from the first execution", st.ID))
	}
	if !job.optimize {
		r.executed = true
		r.met = res.Good >= row.TauG && res.Bad <= row.TauB
		r.modelTime, r.outTime = res.TotalTime, res.Time
		r.docs = res.DocsProcessed[0] + res.DocsProcessed[1]
		r.queries = res.Queries[0] + res.Queries[1]
	}
	if tr != nil {
		f.traceJob(ctx, c, d, st.ID, tr, start, posted, end, stm, &r)
	}
	return r
}

// traceJob records a traced job's spans: the client's submit round trip,
// the service's queue wait and execution from the job's status timestamps,
// the notification remainder, and the layer spans stamped on the /events
// stream as it arrived.
func (f *fleet) traceJob(ctx context.Context, c *fleetClient, d *daemon, id string, tr *tracer,
	start, posted, end time.Time, stm *stamper, r *opResult) {
	root := tr.add(0, 0, "op", tr.at(start), tr.at(end))
	tr.add(root, root, "service.submit", tr.at(start), tr.at(posted))
	r.chosen = stm.chosen
	stm.spans(root)
	var st service.JobStatus
	if err := c.getJSON(ctx, d.url+"/v1/jobs/"+id, &st); err != nil || st.Started == nil || st.Finished == nil {
		return
	}
	tr.add(root, root, "service.queue_wait", tr.at(st.Submitted), tr.at(*st.Started))
	tr.add(root, root, "service.exec", tr.at(*st.Started), tr.at(*st.Finished))
	// Client latency − (Finished − Submitted), as two intervals: before
	// the service stamped the submission, and after it finished the job.
	tr.add(root, root, "service.notify", tr.at(start), tr.at(st.Submitted))
	tr.add(root, root, "service.notify", tr.at(*st.Finished), tr.at(end))
}

func (f *fleet) cpuSeconds() float64 {
	total := 0.0
	for _, d := range f.daemons {
		if d == nil {
			continue
		}
		if s, err := procCPU(d.cmd.Process.Pid); err == nil {
			total += s
		}
	}
	return total
}

// peakRSSMB is the replicas' summed peak RSS after the warm-up and the
// first rssAfter timed jobs, or now if the run completed fewer.
func (f *fleet) peakRSSMB() (float64, error) {
	if mb, ok := f.rss.Load().(float64); ok {
		return mb, nil
	}
	return f.daemonsRSSMB()
}

func (f *fleet) daemonsRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f.daemons {
		mb, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// scrape sums the named series over both replicas' /metrics.
func (f *fleet) scrape(ctx context.Context, names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range f.daemons {
		text, err := f.clients[0].getText(ctx, d.url+"/metrics")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(text, "\n") {
			for _, n := range names {
				rest, ok := strings.CutPrefix(line, n)
				if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
					continue
				}
				fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
				if len(fields) == 0 {
					continue
				}
				if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
					out[n+labelOf(rest)] += v
					out[n] += v
				}
			}
		}
	}
	return out, nil
}

// labelOf returns the label set of a series line ("" when it has none).
func labelOf(rest string) string {
	if rest[0] != '{' {
		return ""
	}
	return rest[:strings.IndexByte(rest, '}')+1]
}

func (f *fleet) close() error {
	err := f.stopDaemons()
	for _, c := range f.clients {
		c.http.CloseIdleConnections()
	}
	os.RemoveAll(f.root)
	return err
}

// stopDaemons SIGTERMs both replicas and requires each to exit 0 after a
// clean drain.
func (f *fleet) stopDaemons() error {
	var errs []error
	for _, d := range f.daemons {
		if d != nil {
			d.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	for i, d := range f.daemons {
		if d == nil {
			continue
		}
		errs = append(errs, d.stopped())
		f.daemons[i] = nil
	}
	return errors.Join(errs...)
}

func (f *fleet) info() map[string]any {
	var infeasible []string
	for j := range f.infeasible {
		infeasible = append(infeasible, fmt.Sprintf("spec %d τg=%d τb=%d", j.spec, f.rows[j.row].TauG, f.rows[j.row].TauB))
	}
	slices.Sort(infeasible)
	return map[string]any{"docs": f.docs, "specs": f.specs, "cycle": len(f.jobs), "infeasible": infeasible,
		"ports": f.ports, "probe_store_dir": f.root, "probe_store_fs": fsType(f.root)}
}

// daemon is one joinoptd process.
type daemon struct {
	name, url string
	cmd       *exec.Cmd
	log       *syncBuffer
	exited    chan struct{}
	waitErr   error
}

func startDaemon(bin string, port int, self, peers string) (*daemon, error) {
	d := &daemon{url: self, log: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", fmt.Sprintf("127.0.0.1:%d", port), "-self", self, "-peers", peers)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	// Take the replica down with the benchmark if the benchmark dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting joinoptd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// ready waits for the replica's /readyz and learns its member name.
func (d *daemon) ready(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("joinoptd %s exited during start-up: %v\n%s", d.url, d.waitErr, d.log)
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("joinoptd %s not ready after 30s\n%s", d.url, d.log)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var info cluster.Info
	c := &fleetClient{http: hc}
	if err := c.getJSON(ctx, d.url+"/v1/cluster", &info); err != nil {
		return err
	}
	d.name = info.Self
	return nil
}

// stopped waits for a SIGTERMed replica and checks its drain.
func (d *daemon) stopped() error {
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("joinoptd %s survived SIGTERM for 60s", d.url)
	}
	if d.waitErr != nil {
		return fmt.Errorf("joinoptd %s: %v\n%s", d.url, d.waitErr, d.log)
	}
	if !strings.Contains(d.log.String(), "drained cleanly") {
		return fmt.Errorf("joinoptd %s: drain not clean\n%s", d.url, d.log)
	}
	return nil
}

// freePorts returns the first pair of consecutive free loopback ports from
// base. Fixed ports keep ring ownership, and so the picked specs, the same
// for the same seed: the ring hashes the replicas' URLs.
func freePorts(base int) ([2]int, error) {
	free := func(p int) bool {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			return false
		}
		ln.Close()
		return true
	}
	for p := base; p < base+200; p += 2 {
		if free(p) && free(p+1) {
			return [2]int{p, p + 1}, nil
		}
	}
	return [2]int{}, fmt.Errorf("no free port pair in %d..%d", base, base+200)
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if (abs == f[1] || strings.HasPrefix(abs, strings.TrimSuffix(f[1], "/")+"/")) && len(f[1]) > len(best) {
			best, typ = f[1], f[2]
		}
	}
	return typ
}

// fleetClient is one caller's HTTP client. It follows the service's 307
// redirects and counts them.
type fleetClient struct {
	http      *http.Client
	redirects int
}

func newFleetClient() *fleetClient {
	c := &fleetClient{}
	c.http = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			if len(via) >= 5 {
				return errors.New("too many redirects")
			}
			c.redirects++
			return nil
		},
	}
	return c
}

func (c *fleetClient) do(ctx context.Context, method, u string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// post sends body and decodes a 202 response into v; it returns the status.
func (c *fleetClient) post(ctx context.Context, u string, body []byte, v any) (int, error) {
	resp, err := c.do(ctx, http.MethodPost, u, body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

func (c *fleetClient) getJSON(ctx context.Context, u string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: HTTP %d: %s", u, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *fleetClient) getText(ctx context.Context, u string) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return string(b), err
}

// stream reads a job's NDJSON event stream to its end, which the service
// sends when the job finishes, and returns the number of events. With stm
// set, every event is stamped on arrival.
func (c *fleetClient) stream(ctx context.Context, u string, stm *stamper) (int, error) {
	resp, err := c.do(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	n := 0
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' {
			n++
			if stm != nil {
				stm.observe(eventKind(line))
			}
		}
		switch {
		case err == io.EOF:
			return n, nil
		case errors.Is(err, bufio.ErrBufferFull):
			// An event longer than the buffer: keep reading its tail.
		case err != nil:
			return n, err
		}
	}
}

// syncBuffer collects a child process's output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

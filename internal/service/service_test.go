package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"joinopt"
	"joinopt/internal/obs"
	"joinopt/internal/service"
)

// testSpec is the workload most tests share: small enough to build in tens
// of milliseconds, with a requirement known to be feasible.
var testSpec = service.WorkloadSpec{NumDocs: 500, Seed: 21}

const (
	testTauG = 5
	testTauB = 120
)

// gate is a Tracer that blocks the first event it sees until released —
// the deterministic way to hold a job mid-run while a test cancels, drains,
// or fills the queue behind it.
type gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Emit(obs.Event) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

type env struct {
	svc     *service.Service
	srv     *httptest.Server
	metrics *obs.Registry
}

func newEnv(t *testing.T, opts service.Options) *env {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	svc := service.New(opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return &env{svc: svc, srv: srv, metrics: opts.Metrics}
}

// resident reports how many workload Tasks the service's registry holds.
func (e *env) resident() int {
	return int(e.metrics.Snapshot().Gauges[service.MetricWorkloadResident])
}

// submit POSTs a job and decodes the response, asserting the status code.
func (e *env) submit(t *testing.T, req service.JobRequest, wantStatus int) (service.JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("submit: status %d, want %d (body %s)", resp.StatusCode, wantStatus, raw)
	}
	var st service.JobStatus
	if wantStatus == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit: decoding %s: %v", raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return st, resp
}

// await polls the job until it leaves the queued/running states.
func (e *env) await(t *testing.T, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := e.status(t, id)
		if st.State != service.StateQueued && st.State != service.StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return service.JobStatus{}
}

func (e *env) status(t *testing.T, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(e.srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: %d %s", id, resp.StatusCode, b)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// result fetches a finished job's result envelope.
func (e *env) result(t *testing.T, id string) (state string, errMsg string, res *service.JobResult) {
	t.Helper()
	resp, err := http.Get(e.srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("result %s: %d %s", id, resp.StatusCode, b)
	}
	var out struct {
		State  string             `json:"state"`
		Error  string             `json:"error"`
		Result *service.JobResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.State, out.Error, out.Result
}

// events reads the job's full NDJSON event stream.
func (e *env) events(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(e.srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEndToEndAdaptiveMatchesInProcess is the tentpole acceptance test: an
// adaptive job through the daemon's HTTP API produces the same plans and
// output composition as the same request through Task.Run in-process — and
// with the extraction cache disabled (cache warmth annotates trace timing),
// the streamed NDJSON event log is byte-identical to an in-process NDJSON
// trace of the same run.
func TestEndToEndAdaptiveMatchesInProcess(t *testing.T) {
	spec := testSpec
	spec.CacheBytes = -1 // disable: keeps traces independent of cross-job warmth
	e := newEnv(t, service.Options{})

	st, _ := e.submit(t, service.JobRequest{
		Workload: spec,
		TauG:     testTauG,
		TauB:     testTauB,
		Workers:  1,
	}, http.StatusAccepted)
	if fin := e.await(t, st.ID); fin.State != service.StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	_, _, res := e.result(t, st.ID)
	streamed := e.events(t, st.ID)

	// The same request, in-process.
	tk, err := joinopt.NewTaskPair(joinopt.WorkloadParams{
		NumDocs: spec.NumDocs, Seed: spec.Seed,
	}, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	sink := joinopt.NewTraceFile(&ref)
	local, err := tk.Run(context.Background(),
		joinopt.Requirement{TauG: testTauG, TauB: testTauB},
		joinopt.WithWorkers(1),
		joinopt.WithTracer(joinopt.NewTrace(sink)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	if res.Good != local.Outcome.GoodTuples || res.Bad != local.Outcome.BadTuples {
		t.Errorf("composition diverged: service %d/%d vs in-process %d/%d",
			res.Good, res.Bad, local.Outcome.GoodTuples, local.Outcome.BadTuples)
	}
	if len(res.Plans) != len(local.Plans) {
		t.Fatalf("plans diverged: %v vs %v", res.Plans, local.Plans)
	}
	for i, p := range local.Plans {
		if res.Plans[i] != p.String() {
			t.Errorf("plan %d: %q vs %q", i, res.Plans[i], p)
		}
	}
	if !bytes.Equal(streamed, ref.Bytes()) {
		t.Errorf("streamed trace is not byte-identical to the in-process trace:\nservice %d bytes vs local %d bytes", len(streamed), ref.Len())
	}
	if bytes.Count(streamed, []byte("\n")) < 3 {
		t.Errorf("suspiciously short trace: %s", streamed)
	}
}

// TestExecuteAndOptimizeModes covers the two non-adaptive modes against
// their in-process equivalents.
func TestExecuteAndOptimizeModes(t *testing.T) {
	e := newEnv(t, service.Options{})
	plan := &service.PlanRequest{Algorithm: "IDJN", Theta: [2]float64{0.4, 0.4}, X: [2]string{"SC", "SC"}}

	exe, _ := e.submit(t, service.JobRequest{
		Workload: testSpec, Mode: service.ModeExecute, Plan: plan, Tuples: 3,
	}, http.StatusAccepted)
	opt, _ := e.submit(t, service.JobRequest{
		Workload: testSpec, Mode: service.ModeOptimize, TauG: testTauG, TauB: testTauB,
	}, http.StatusAccepted)

	if st := e.await(t, exe.ID); st.State != service.StateDone {
		t.Fatalf("execute job: %s (%s)", st.State, st.Error)
	}
	if st := e.await(t, opt.ID); st.State != service.StateDone {
		t.Fatalf("optimize job: %s (%s)", st.State, st.Error)
	}

	tk, err := joinopt.NewTaskPair(joinopt.WorkloadParams{NumDocs: testSpec.NumDocs, Seed: testSpec.Seed}, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}

	_, _, exeRes := e.result(t, exe.ID)
	local, err := tk.Run(context.Background(), joinopt.Requirement{}, joinopt.WithPlan(joinopt.Plan{
		Algorithm: joinopt.IndependentJoin,
		Theta:     [2]float64{0.4, 0.4},
		X:         [2]joinopt.Strategy{joinopt.Scan, joinopt.Scan},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if exeRes.Good != local.Outcome.GoodTuples || exeRes.Bad != local.Outcome.BadTuples {
		t.Errorf("execute composition: %d/%d vs %d/%d", exeRes.Good, exeRes.Bad, local.Outcome.GoodTuples, local.Outcome.BadTuples)
	}
	if len(exeRes.Tuples) != 3 {
		t.Errorf("tuple cap: got %d tuples, want 3", len(exeRes.Tuples))
	}

	_, _, optRes := e.result(t, opt.ID)
	ev, err := tk.Optimize(joinopt.Requirement{TauG: testTauG, TauB: testTauB})
	if err != nil {
		t.Fatal(err)
	}
	if optRes.Evaluation == nil || optRes.Evaluation.Plan != ev.Plan.String() {
		t.Errorf("optimize chose %+v, in-process chose %s", optRes.Evaluation, ev.Plan)
	}
}

// TestAdmissionControl pins the 429 surface: a held worker plus a full
// queue rejects with queue_full, and a tenant over its quota rejects with
// tenant_quota — both carrying Retry-After.
func TestAdmissionControl(t *testing.T) {
	g := newGate()
	e := newEnv(t, service.Options{
		Workers:     1,
		QueueDepth:  2,
		TenantQuota: 2,
		RetryAfter:  3 * time.Second,
		TraceSink:   g,
	})
	req := func(tenant string) service.JobRequest {
		return service.JobRequest{Tenant: tenant, Workload: testSpec, TauG: testTauG, TauB: testTauB}
	}

	blocker, _ := e.submit(t, req("a"), http.StatusAccepted)
	<-g.entered // the only worker is now held mid-run
	e.submit(t, req("a"), http.StatusAccepted)

	// Tenant a is at quota (1 running + 1 queued).
	_, resp := e.submit(t, req("a"), http.StatusTooManyRequests)
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("tenant-quota Retry-After = %q, want 3", ra)
	}
	var body struct{ Reason string }
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Reason != "tenant_quota" {
		t.Errorf("tenant-quota reason = %q (%v)", body.Reason, err)
	}

	// Fill the queue with another tenant, then overflow it.
	e.submit(t, req("b"), http.StatusAccepted)
	_, resp = e.submit(t, req("c"), http.StatusTooManyRequests)
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("queue-full Retry-After = %q, want 3", ra)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Reason != "queue_full" {
		t.Errorf("queue-full reason = %q (%v)", body.Reason, err)
	}

	close(g.release)
	if st := e.await(t, blocker.ID); st.State != service.StateDone {
		t.Fatalf("blocker finished %s (%s)", st.State, st.Error)
	}

	snap := e.metrics.Snapshot()
	if n := snap.Counters[obs.Series(service.MetricJobsRejected, "reason", "tenant_quota")]; n != 1 {
		t.Errorf("tenant_quota rejections = %d, want 1", n)
	}
	if n := snap.Counters[obs.Series(service.MetricJobsRejected, "reason", "queue_full")]; n != 1 {
		t.Errorf("queue_full rejections = %d, want 1", n)
	}
}

// TestCancelRunningJobCheckpointsAndResumes pins DELETE semantics on a
// running adaptive job — it cancels via context, the run checkpoints, and a
// resume_from job completes with the composition of an uninterrupted run.
func TestCancelRunningJobCheckpointsAndResumes(t *testing.T) {
	g := newGate()
	e := newEnv(t, service.Options{Workers: 1, TraceSink: g})
	req := service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}

	st, _ := e.submit(t, req, http.StatusAccepted)
	<-g.entered
	delResp, err := httpDelete(e.srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", delResp.StatusCode)
	}
	close(g.release)

	fin := e.await(t, st.ID)
	if fin.State != service.StateCanceled {
		t.Fatalf("canceled job finished %s (%s)", fin.State, fin.Error)
	}
	if !fin.Resumable {
		t.Fatal("canceled adaptive job carries no checkpoint")
	}
	state, _, res := e.result(t, st.ID)
	if state != service.StateCanceled || res == nil || !res.Resumable {
		t.Fatalf("canceled result: state %s, result %+v", state, res)
	}

	resumed, _ := e.submit(t, service.JobRequest{
		Workload: testSpec, TauG: testTauG, TauB: testTauB, ResumeFrom: st.ID,
	}, http.StatusAccepted)
	if fin := e.await(t, resumed.ID); fin.State != service.StateDone {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
	_, _, resumedRes := e.result(t, resumed.ID)

	fresh, _ := e.submit(t, req, http.StatusAccepted)
	if fin := e.await(t, fresh.ID); fin.State != service.StateDone {
		t.Fatalf("fresh job: %s (%s)", fin.State, fin.Error)
	}
	_, _, freshRes := e.result(t, fresh.ID)
	if resumedRes.Good != freshRes.Good || resumedRes.Bad != freshRes.Bad {
		t.Errorf("resumed run diverged: %d/%d vs fresh %d/%d",
			resumedRes.Good, resumedRes.Bad, freshRes.Good, freshRes.Bad)
	}
}

// TestCancelQueuedJob pins DELETE on a job that never started: it retires
// immediately and its event stream ends empty.
func TestCancelQueuedJob(t *testing.T) {
	g := newGate()
	e := newEnv(t, service.Options{Workers: 1, TraceSink: g})
	req := service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}

	blocker, _ := e.submit(t, req, http.StatusAccepted)
	<-g.entered
	queued, _ := e.submit(t, req, http.StatusAccepted)
	resp, err := httpDelete(e.srv.URL + "/v1/jobs/" + queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := e.status(t, queued.ID); st.State != service.StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if evs := e.events(t, queued.ID); len(evs) != 0 {
		t.Errorf("never-started job streamed %d bytes of events", len(evs))
	}
	close(g.release)
	e.await(t, blocker.ID)
}

// TestDrainFinishesInFlight pins graceful shutdown: with a generous grace
// period every admitted job completes, admission stops, and readiness flips.
func TestDrainFinishesInFlight(t *testing.T) {
	e := newEnv(t, service.Options{Workers: 2})
	req := service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}

	var ids []string
	for i := 0; i < 4; i++ {
		st, _ := e.submit(t, req, http.StatusAccepted)
		ids = append(ids, st.ID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	e.svc.Drain(ctx)

	for _, id := range ids {
		if st := e.status(t, id); st.State != service.StateDone {
			t.Errorf("job %s drained as %s (%s)", id, st.State, st.Error)
		}
	}
	resp, err := http.Get(e.srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	_, resp2 := e.submit(t, req, http.StatusServiceUnavailable)
	var body struct{ Reason string }
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil || body.Reason != "draining" {
		t.Errorf("post-drain reason = %q (%v)", body.Reason, err)
	}
}

// TestDrainGraceExpiryCancelsWithCheckpoint pins the other drain path: when
// the grace period expires, in-flight adaptive jobs are canceled but keep a
// resumable checkpoint — results are not lost.
func TestDrainGraceExpiryCancelsWithCheckpoint(t *testing.T) {
	g := newGate()
	e := newEnv(t, service.Options{Workers: 1, TraceSink: g})
	st, _ := e.submit(t, service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}, http.StatusAccepted)
	<-g.entered

	dctx, dcancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		e.svc.Drain(dctx)
		close(done)
	}()
	dcancel()        // grace expires immediately: cancel what is in flight
	close(g.release) // let the held run observe its canceled context
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}

	fin := e.status(t, st.ID)
	if fin.State != service.StateCanceled {
		t.Fatalf("job after forced drain: %s (%s)", fin.State, fin.Error)
	}
	if !fin.Resumable {
		t.Error("forced-drain cancel lost the checkpoint")
	}
}

// TestRegistrySharesWorkloads pins the amortization contract: jobs naming
// the same workload spec share one Task build.
func TestRegistrySharesWorkloads(t *testing.T) {
	e := newEnv(t, service.Options{})
	req := service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}
	a, _ := e.submit(t, req, http.StatusAccepted)
	b, _ := e.submit(t, req, http.StatusAccepted)
	e.await(t, a.ID)
	e.await(t, b.ID)

	if n := e.resident(); n != 1 {
		t.Errorf("registry holds %d workloads, want 1", n)
	}
	snap := e.metrics.Snapshot()
	if n := snap.Counters[service.MetricWorkloadBuilds]; n != 1 {
		t.Errorf("workload builds = %d, want 1", n)
	}
	if n := snap.Counters[service.MetricWorkloadReuses]; n < 1 {
		t.Errorf("workload reuses = %d, want >= 1", n)
	}
}

// TestSubmitValidation pins the 400 surface, including the fault-profile
// errors naming the offending key.
func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, service.Options{})
	cases := []struct {
		name string
		req  service.JobRequest
		want string // substring of the error body
	}{
		{"unknown mode", service.JobRequest{Workload: testSpec, Mode: "turbo"}, "unknown mode"},
		{"execute without plan", service.JobRequest{Workload: testSpec, Mode: service.ModeExecute}, "requires a plan"},
		{"bad algorithm", service.JobRequest{Workload: testSpec, Mode: service.ModeExecute,
			Plan: &service.PlanRequest{Algorithm: "XXJN"}}, "unknown algorithm"},
		{"bad fault key", service.JobRequest{Workload: testSpec, Faults: "rat=0.1"}, `unknown profile key "rat"`},
		{"bad fault value", service.JobRequest{Workload: testSpec, Faults: "rate=lots"}, `bad value "lots"`},
		{"fault rate that never finishes", service.JobRequest{Workload: testSpec, Faults: "rate=1"}, `profile key "rate"`},
		{"fault next that never finishes", service.JobRequest{Workload: testSpec, Faults: "next=1"}, `profile key "next"`},
		{"fault classify that never finishes", service.JobRequest{Workload: testSpec, Faults: "classify=1"}, `profile key "classify"`},
		{"fault probability above one", service.JobRequest{Workload: testSpec, Faults: "rate=2"}, `profile key "rate"`},
		{"fault cost NaN", service.JobRequest{Workload: testSpec, Faults: "rate=0.3,cost=NaN"}, `profile key "cost"`},
		{"fault cost infinite", service.JobRequest{Workload: testSpec, Faults: "stall=0.5,cost=Inf"}, `profile key "cost"`},
		{"fault cost negative", service.JobRequest{Workload: testSpec, Faults: "rate=0.3,cost=-5"}, `profile key "cost"`},
		{"resume from unknown job", service.JobRequest{Workload: testSpec, ResumeFrom: "j999999"}, "unknown job"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := e.submit(t, tc.req, http.StatusBadRequest)
			var body struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(body.Error, tc.want) {
				t.Errorf("error %q does not mention %q", body.Error, tc.want)
			}
		})
	}
}

// TestShardsAliasRunsExecWorkers: "shards" stays a v1 job-spec key, an
// alias of exec_workers, so handleSubmit's strict decoder accepts specs
// written when executions were sharded. A job with "shards": 2 returns the
// result of the same job with "exec_workers": 2, and of one with neither.
// The cache is off, so the three jobs cannot warm one another.
func TestShardsAliasRunsExecWorkers(t *testing.T) {
	e := newEnv(t, service.Options{})
	var want *service.JobResult
	for _, knob := range []string{``, `"exec_workers":2,`, `"shards":2,`} {
		spec := fmt.Sprintf(`{%s"workload":{"num_docs":%d,"seed":%d,"cache_bytes":-1},"tau_g":%d,"tau_b":%d,"tuples":-1}`,
			knob, testSpec.NumDocs, testSpec.Seed, testTauG, testTauB)
		resp, err := http.Post(e.srv.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var st service.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("submitting %s: status %d, decoding: %v", spec, resp.StatusCode, err)
		}
		if fin := e.await(t, st.ID); fin.State != service.StateDone {
			t.Fatalf("%s finished %s (%s)", spec, fin.State, fin.Error)
		}
		_, _, res := e.result(t, st.ID)
		if want == nil {
			want = res
		} else if !reflect.DeepEqual(res, want) {
			t.Errorf("%s diverged from the plain job:\n got %+v\nwant %+v", spec, res, want)
		}
	}
	if len(want.Tuples) == 0 {
		t.Error("the plain job returned no tuples to compare")
	}
}

// TestMetricsEndpoint spot-checks the daemon's Prometheus exposition after
// a completed job.
func TestMetricsEndpoint(t *testing.T) {
	e := newEnv(t, service.Options{})
	st, _ := e.submit(t, service.JobRequest{Workload: testSpec, TauG: testTauG, TauB: testTauB}, http.StatusAccepted)
	e.await(t, st.ID)

	resp, err := http.Get(e.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	body := strings.Join(lines, "\n")
	for _, want := range []string{
		fmt.Sprintf(`%s{tenant="default"} 1`, service.MetricJobsSubmitted),
		fmt.Sprintf(`%s{state="done"} 1`, service.MetricJobsCompleted),
		service.MetricWorkloadBuilds + " 1",
		fmt.Sprintf(`%s{job="%s"}`, service.MetricJobGood, st.ID),
		"# TYPE " + service.MetricJobWallSecs + " histogram",
		service.MetricJobWallSecs + `_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func httpDelete(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

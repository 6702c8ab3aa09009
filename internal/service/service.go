// Package service is the serving layer of the repository: it exposes the
// full optimizer/executor stack — adaptive runs, pinned-plan executions,
// and perfect-knowledge plan choice — over an HTTP JSON API with job
// scheduling, multi-tenant admission control, streamed execution traces,
// and Prometheus metrics. cmd/joinoptd wraps it in a daemon; cmd/loadgen
// drives it closed-loop.
//
// The layer exists because the expensive assets of this system — generated
// corpora, trained retrieval machinery, the optimizer environment's static
// measurements, the perfect-knowledge statistics, the IE systems'
// scored-candidate memo, and the shared extraction cache — are all
// per-Task: a registry that hands every request the same Task amortizes
// them across clients, which is exactly what the facade's concurrent-Run
// contract (see joinopt.Task.Run) makes safe. Optimizer inputs are not
// among them: every Run and Optimize gets its own, and an Optimize only
// assembles its inputs from the once-measured statistics.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"joinopt"
	"joinopt/internal/cluster"
	"joinopt/internal/durable"
	"joinopt/internal/obs"
	"joinopt/internal/pipeline"
	"joinopt/internal/querygraph"
)

// Options configures a Service. The zero value selects the defaults.
type Options struct {
	// Workers sizes the execution pool (default 2).
	Workers int
	// QueueDepth bounds the number of queued jobs before submissions are
	// rejected with 429 (default 64).
	QueueDepth int
	// TenantQuota bounds each tenant's queued+running jobs; exceeding it
	// rejects with 429 (default 8; negative disables the quota).
	TenantQuota int
	// RetryAfter is the hint returned with 429 rejections (default 1s).
	RetryAfter time.Duration
	// DefaultCacheBytes sizes the shared extraction cache of workloads that
	// do not request a size (default 32 MiB).
	DefaultCacheBytes int64
	// MaxJobs bounds the finished jobs retained for status/result queries;
	// the oldest finished jobs (and their per-job metric series) are
	// evicted beyond it (default 1024).
	MaxJobs int
	// Metrics receives service and registry metrics (nil creates a private
	// registry, exposed only through /metrics).
	Metrics *obs.Registry
	// TraceSink, when set, additionally receives every job's trace events
	// (e.g. a daemon-wide NDJSON flight recorder). The service does not
	// close it.
	TraceSink obs.Tracer
	// Durable, when set, makes the service crash-safe: job-state
	// transitions are journaled, adaptive checkpoints and final results are
	// persisted, and the extraction caches gain a disk tier — all under the
	// store's state directory. The service absorbs durable-layer failures
	// (see Service.Degraded); it never fails a job over them.
	Durable *durable.Store
	// Recovered is the replay that came out of opening the durable store;
	// New re-enqueues, resumes, or reinstates every job in it before the
	// service starts serving.
	Recovered *durable.Recovered
	// Cluster, when set, federates this replica with its peers: any replica
	// accepts a submission and routes it to the workload's owner on the
	// consistent-hash ring, running adaptive jobs replicate their
	// checkpoints to the replica that would inherit them, and a dead or
	// draining peer's jobs are adopted and resumed bit-identically. The
	// caller owns the cluster's probe-loop lifecycle (Start after New).
	Cluster *cluster.Cluster
	// ForwardMode selects how mis-addressed submissions reach their owner:
	// ForwardProxy (default) re-issues them server-side, ForwardRedirect
	// answers 307.
	ForwardMode string
	// Logf, when set, receives operational log lines (cluster transitions,
	// migrations, handoffs).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.TenantQuota == 0 {
		o.TenantQuota = 8
	}
	if o.TenantQuota < 0 {
		o.TenantQuota = 0 // disabled
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.DefaultCacheBytes == 0 {
		o.DefaultCacheBytes = 32 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.ForwardMode == "" {
		o.ForwardMode = ForwardProxy
	}
	return o
}

// Service metric families. Per-tenant and per-job series carry tenant= and
// job= labels; the per-job run gauges are evicted together with their jobs,
// bounding the exposition's cardinality at MaxJobs.
const (
	MetricJobsSubmitted = "joinoptd_jobs_submitted_total"
	MetricJobsRejected  = "joinoptd_jobs_rejected_total"
	MetricJobsCompleted = "joinoptd_jobs_completed_total"
	MetricQueueDepth    = "joinoptd_queue_depth"
	MetricJobsRunning   = "joinoptd_jobs_running"
	MetricJobWallSecs   = "joinoptd_job_wall_seconds"
	MetricJobGood       = "joinoptd_job_good_tuples"
	MetricJobBad        = "joinoptd_job_bad_tuples"
	MetricJobModelTime  = "joinoptd_job_model_time"
)

// Service is the join-optimization service: a workload registry, a job
// scheduler, and the job store behind the HTTP API.
type Service struct {
	opts     Options
	registry *Registry
	sched    *scheduler

	seq atomic.Uint64

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for eviction

	draining  atomic.Bool
	drainOnce sync.Once
	drainedCh chan struct{}

	jobWall *obs.Histogram

	// Cluster state (nil/empty without Options.Cluster).
	standby    *standbyStore
	migrations map[string]*obs.Counter

	// ckTestHook, when set (tests only, before any job runs), is called
	// from the checkpoint sink after the checkpoint has persisted and
	// replicated — a deterministic mid-run freeze point for migration
	// tests, which otherwise race wall-clock against job completion.
	ckTestHook func(*Job)
}

// New builds and starts a Service (its worker pool runs immediately).
func New(opts Options) *Service {
	opts = opts.withDefaults()
	m := opts.Metrics
	m.Describe(MetricJobsSubmitted, "jobs admitted into the queue")
	m.Describe(MetricJobsRejected, "submissions rejected by admission control")
	m.Describe(MetricJobsCompleted, "jobs finished, by terminal state")
	m.Describe(MetricQueueDepth, "jobs queued and not yet running")
	m.Describe(MetricJobsRunning, "jobs currently executing")
	m.Describe(MetricJobWallSecs, "wall-clock seconds per executed job")
	m.Describe(MetricJobGood, "good join tuples of a finished job")
	m.Describe(MetricJobBad, "bad join tuples of a finished job")
	m.Describe(MetricJobModelTime, "total cost-model time of a finished job")
	s := &Service{
		opts:      opts,
		registry:  NewRegistry(opts.DefaultCacheBytes, m),
		jobs:      map[string]*Job{},
		drainedCh: make(chan struct{}),
		jobWall:   m.Histogram(MetricJobWallSecs, []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120}),
	}
	if d := opts.Durable; d != nil {
		m.Describe(obs.MetricJobsRecovered, "jobs recovered across a daemon restart, by how (requeued, resumed, completed)")
		m.Describe(obs.MetricDurableErrs, "durable-store failures absorbed by degrading to memory-only operation, by op")
		s.registry.tierFor = func(key regKey) pipeline.Tier {
			return d.CacheTier(cacheNamespace(key))
		}
	}
	s.sched = newScheduler(opts.Workers, opts.QueueDepth, opts.TenantQuota, s.execute)
	if opts.Durable != nil && opts.Recovered != nil {
		s.recover(opts.Recovered)
	}
	if opts.Cluster != nil {
		s.initCluster()
	}
	return s
}

// Draining reports whether a drain has started (readyz turns 503).
func (s *Service) Draining() bool { return s.draining.Load() }

// Submit validates the request, admits it through the scheduler, and
// returns the queued job. Admission failures return ErrQueueFull,
// ErrTenantQuota, or ErrDraining; validation failures return other errors
// (the API maps them to 400).
func (s *Service) Submit(req JobRequest) (*Job, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Query != nil {
		if err := validateQueryJob(&req); err != nil {
			return nil, err
		}
	}
	switch req.Mode {
	case "":
		req.Mode = ModeAdaptive
		if req.Query != nil {
			req.Mode = ModeQuery
		}
	case ModeQuery:
		if req.Query == nil {
			return nil, errors.New("query mode requires a query spec")
		}
	case ModeAdaptive, ModeExecute, ModeOptimize:
	default:
		return nil, fmt.Errorf("unknown mode %q (want %s, %s, %s, or %s)", req.Mode, ModeAdaptive, ModeExecute, ModeOptimize, ModeQuery)
	}
	var plan *joinopt.Plan
	if req.Mode == ModeExecute {
		if req.Plan == nil {
			return nil, errors.New("execute mode requires a plan")
		}
		p, err := req.Plan.plan()
		if err != nil {
			return nil, err
		}
		plan = &p
	}
	if req.Faults != "" {
		if _, err := joinopt.ParseFaultProfile(req.Faults); err != nil {
			return nil, err
		}
	}
	if req.ResumeFrom != "" {
		if req.Mode != ModeAdaptive {
			return nil, errors.New("resume_from requires adaptive mode")
		}
		src, err := s.job(req.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("resume_from: %w", err)
		}
		if src.Checkpoint() == nil {
			return nil, fmt.Errorf("resume_from: job %s has no resumable checkpoint", req.ResumeFrom)
		}
		if s.registry.normalize(src.req.Workload, nil) != s.registry.normalize(req.Workload, nil) {
			return nil, errors.New("resume_from: workload differs from the checkpointed job's")
		}
	}

	var reqWire []byte
	if s.opts.Durable != nil || s.opts.Cluster != nil {
		// A request that does not encode stays nil: never journaled or replicated.
		reqWire, _ = json.Marshal(req)
	}

	seq := s.seq.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        s.nodeJobID(seq),
		Tenant:    req.Tenant,
		Priority:  req.Priority,
		seq:       seq,
		req:       req,
		plan:      plan,
		reqWire:   reqWire,
		key:       CanonicalWorkloadKey(req),
		node:      s.selfNode(),
		ctx:       ctx,
		cancel:    cancel,
		events:    newEventLog(),
		state:     StateQueued,
		submitted: time.Now(),
	}

	m := s.opts.Metrics
	if err := s.sched.submit(j); err != nil {
		cancel()
		reason := "queue_full"
		switch {
		case errors.Is(err, ErrTenantQuota):
			reason = "tenant_quota"
		case errors.Is(err, ErrDraining):
			reason = "draining"
		}
		m.Counter(obs.Series(MetricJobsRejected, "reason", reason)).Inc()
		return nil, err
	}
	s.storeJob(j)
	if s.opts.Durable != nil && reqWire != nil {
		// Journal the acceptance before acknowledging it: a daemon that
		// dies after this line re-runs the job; one that dies before it
		// never confirmed the submission.
		s.journal(durable.Record{Seq: seq, Event: durable.EventSubmitted, JobID: j.ID, Tenant: j.Tenant, Request: reqWire})
	}
	m.Counter(obs.Series(MetricJobsSubmitted, "tenant", j.Tenant)).Inc()
	s.publishPool()
	return j, nil
}

// validateQueryJob rejects the binary-only parts of the job spec on n-way
// query jobs, and malformed query shapes, at submission time.
func validateQueryJob(req *JobRequest) error {
	switch req.Mode {
	case "", ModeQuery, ModeOptimize:
	default:
		return fmt.Errorf("%s mode does not apply to query jobs (want %s or %s)", req.Mode, ModeQuery, ModeOptimize)
	}
	if req.Workload.Relations != [2]string{} {
		return errors.New("query jobs name their relations in query.relations; leave workload.relations empty")
	}
	switch {
	case req.Workload.NumDocs2 != 0:
		return errors.New("num_docs2 applies to binary workloads only")
	case req.Plan != nil:
		return errors.New("plan applies to execute-mode binary jobs only")
	case req.Faults != "":
		return errors.New("fault injection applies to binary jobs only")
	case req.Retries != 0 || req.FailureBudget != 0:
		return errors.New("retry policies apply to binary jobs only")
	case req.ResumeFrom != "":
		return errors.New("resume_from applies to adaptive binary jobs only")
	case req.Tuples != 0 && len(req.Query.Relations) > 2:
		return errors.New("tuples apply to two-relation results only")
	}
	_, err := (querygraph.Spec{Relations: req.Query.Relations, Joins: req.Query.Joins}).Graph()
	return err
}

// storeJob indexes the job and evicts the oldest finished jobs past the
// retention bound.
func (s *Service) storeJob(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.jobs) > s.opts.MaxJobs {
		evicted := false
		for i, id := range s.order {
			old, ok := s.jobs[id]
			if !ok {
				continue
			}
			if !old.terminal() {
				continue
			}
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.opts.Metrics.Forget(
				obs.Series(MetricJobGood, "job", id),
				obs.Series(MetricJobBad, "job", id),
				obs.Series(MetricJobModelTime, "job", id),
			)
			evicted = true
			break
		}
		if !evicted {
			break // everything live; retain over the bound rather than drop state
		}
	}
}

// job resolves a job by ID.
func (s *Service) job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("unknown job %q", id)
	}
	return j, nil
}

// Cancel stops a job: a queued job is retired immediately; a running job's
// context is canceled (an adaptive run checkpoints and keeps its partial
// result). Finished jobs are left untouched.
func (s *Service) Cancel(id string) (*Job, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	if j.terminal() {
		return j, nil
	}
	if s.sched.dequeue(j) {
		s.markCanceled(j)
		s.publishPool()
		return j, nil
	}
	j.cancel() // running: the executor stops at its next step
	return j, nil
}

// markCanceled transitions a never-started job to canceled. As in finish,
// the journal commits the transition before the job is seen canceled, so
// a restart never re-queues a job a client already saw canceled; the job
// lock is held across the write so a worker cannot start the job between
// the two.
func (s *Service) markCanceled(j *Job) {
	j.mu.Lock()
	transitioned := j.state == StateQueued
	if transitioned {
		s.journal(durable.Record{Seq: j.seq, Event: durable.EventFinished, JobID: j.ID, State: StateCanceled, Error: "canceled before start"})
		j.state = StateCanceled
		j.err = "canceled before start"
		j.finished = time.Now()
	}
	j.mu.Unlock()
	j.events.Close()
	s.opts.Metrics.Counter(obs.Series(MetricJobsCompleted, "state", StateCanceled)).Inc()
}

// publishPool refreshes the queue-depth and running gauges.
func (s *Service) publishPool() {
	queued, running := s.sched.queueDepth()
	s.opts.Metrics.Gauge(MetricQueueDepth).Set(float64(queued))
	s.opts.Metrics.Gauge(MetricJobsRunning).Set(float64(running))
}

// execute runs one job on a scheduler worker.
func (s *Service) execute(j *Job) {
	start := time.Now()
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued, raced with a worker
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = start
	j.mu.Unlock()
	s.journal(durable.Record{Seq: j.seq, Event: durable.EventStarted, JobID: j.ID})
	s.publishPool()

	res, err := s.runJob(j)
	s.finish(j, res, err)
	s.jobWall.Observe(time.Since(start).Seconds())
	s.publishPool()
}

// runJob dispatches on the job mode and executes against the shared Task.
func (s *Service) runJob(j *Job) (*JobResult, error) {
	task, err := s.registry.Task(j.req.Workload, j.req.Query)
	if err != nil {
		return nil, err
	}
	req := joinopt.Requirement{TauG: j.req.TauG, TauB: j.req.TauB}

	if j.req.Mode == ModeOptimize {
		if j.req.Query != nil {
			qp, err := task.OptimizeQuery(req)
			if err != nil {
				return nil, err
			}
			return &JobResult{
				Mode:  ModeOptimize,
				Plans: []string{qp.String()},
				Evaluation: &PlanEvalJSON{
					Plan:          qp.String(),
					EstimatedGood: qp.EstimatedGood,
					EstimatedBad:  qp.EstimatedBad,
					EstimatedTime: qp.EstimatedTime,
				},
			}, nil
		}
		ev, err := task.Optimize(req)
		if err != nil {
			return nil, err
		}
		return &JobResult{
			Mode:  ModeOptimize,
			Plans: []string{ev.Plan.String()},
			Evaluation: &PlanEvalJSON{
				Plan:          ev.Plan.String(),
				EstimatedGood: ev.EstimatedGood,
				EstimatedBad:  ev.EstimatedBad,
				EstimatedTime: ev.EstimatedTime,
			},
		}, nil
	}

	sinks := []obs.Tracer{j.events}
	if s.opts.TraceSink != nil {
		sinks = append(sinks, s.opts.TraceSink)
	}
	// The service registry doubles as the run registry, so the per-run
	// joinopt_* families — including the extraction-cache hit/miss counters
	// that show disk-tier warmth paying off after a restart — appear on the
	// daemon's /metrics endpoint. N-ary runs do not take per-run metrics
	// instrumentation; their work still shows in the job-level gauges.
	opts := []joinopt.RunOption{
		joinopt.WithTracer(joinopt.NewTrace(sinks...)),
	}
	if task.Arity() == 2 {
		opts = append(opts, joinopt.WithMetrics(s.opts.Metrics))
	}
	if j.req.Workers != 0 {
		opts = append(opts, joinopt.WithWorkers(j.req.Workers))
	}
	execWorkers := j.req.ExecWorkers
	if j.req.Shards > 1 { // the v1 alias, see JobRequest.Shards
		execWorkers = max(execWorkers, j.req.Shards)
	}
	if execWorkers != 0 {
		opts = append(opts, joinopt.WithExecWorkers(execWorkers))
	}
	if j.req.Faults != "" {
		fp, err := joinopt.ParseFaultProfile(j.req.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, joinopt.WithFaults(fp))
	}
	if j.req.Retries != 0 || j.req.FailureBudget != 0 {
		opts = append(opts, joinopt.WithRetries(joinopt.RetryPolicy{
			MaxRetries:    j.req.Retries,
			FailureBudget: j.req.FailureBudget,
		}))
	}
	if j.req.Deadline > 0 {
		opts = append(opts, joinopt.WithDeadline(j.req.Deadline))
	}
	if (s.opts.Durable != nil || s.opts.Cluster != nil) && j.req.Mode == ModeAdaptive {
		// Stream every protocol-transition checkpoint to disk — a daemon
		// killed mid-run resumes this job from the last one persisted —
		// and, in a cluster, to the replica that inherits this workload if
		// this one dies: a SIGKILL'd replica's jobs resume on the standby
		// from the same snapshots, bit-identical to an uninterrupted run.
		d := s.opts.Durable
		id := j.ID
		opts = append(opts, joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			wire, err := ck.MarshalJSON()
			if err != nil {
				return
			}
			if d != nil {
				d.SaveCheckpoint(id, wire)
			}
			if s.opts.Cluster != nil {
				s.replicateCheckpoint(j, wire)
			}
			if hook := s.ckTestHook; hook != nil {
				// Test seam: lets migration tests freeze a job at a point
				// where its checkpoint has provably replicated, instead of
				// racing wall-clock against job completion.
				hook(j)
			}
		}))
	}
	switch {
	case j.req.Mode == ModeExecute:
		opts = append(opts, joinopt.WithPlan(*j.plan))
	case j.recovered != nil:
		// Rebuilt after a restart: resume from the checkpoint the crashed
		// daemon persisted, not from scratch.
		opts = append(opts, joinopt.WithCheckpoint(j.recovered))
	case j.req.ResumeFrom != "":
		src, err := s.job(j.req.ResumeFrom)
		if err != nil {
			return nil, fmt.Errorf("resume_from: %w", err)
		}
		ck := src.Checkpoint()
		if ck == nil {
			return nil, fmt.Errorf("resume_from: job %s has no resumable checkpoint", j.req.ResumeFrom)
		}
		opts = append(opts, joinopt.WithCheckpoint(ck))
	}

	res, err := task.Run(j.ctx, req, opts...)
	if res == nil {
		return nil, err
	}
	out := &JobResult{
		Mode:           j.req.Mode,
		TotalTime:      res.TotalTime,
		CheckpointErrs: res.CheckpointErrs,
		Resumable:      res.Checkpoint != nil,
	}
	for _, p := range res.Plans {
		out.Plans = append(out.Plans, p.String())
	}
	if o := res.Outcome; o != nil {
		out.Good, out.Bad = o.GoodTuples, o.BadTuples
		out.Time = o.Time
		out.CacheSaved = o.CacheSaved
		out.DocsProcessed, out.DocsRetrieved = o.DocsProcessed, o.DocsRetrieved
		out.Queries = o.Queries
		out.DocsFailed, out.RetriesSpent = o.DocsFailed, o.RetriesSpent
		out.Degraded, out.DeadlineHit = o.Degraded, o.DeadlineHit
		if n := j.req.Tuples; n != 0 {
			tuples := o.Tuples()
			if n > 0 && n < len(tuples) {
				tuples = tuples[:n]
			}
			for _, t := range tuples {
				out.Tuples = append(out.Tuples, JobTuple{A: t.A, B: t.B, C: t.C, Good: t.Good})
			}
		}
	}
	if qo := res.Query; qo != nil {
		out.Good, out.Bad = qo.GoodTuples, qo.BadTuples
		out.Time = qo.Time
		out.DeadlineHit = qo.DeadlineHit
		out.Plans = append(out.Plans, qo.Plan.String())
		qr := &QueryResultJSON{
			Plan:          qo.Plan.String(),
			Tree:          qo.Plan.Tree,
			MergeTime:     qo.MergeTime,
			CacheSaved:    qo.CacheSaved,
			DocsProcessed: qo.DocsProcessed,
			DocsRetrieved: qo.DocsRetrieved,
			Queries:       qo.Queries,
			NodeTuples:    qo.NodeTuples,
		}
		for _, l := range qo.Plan.Leaves {
			qr.Leaves = append(qr.Leaves, QueryLeafJSON{
				Relation: l.Relation, Theta: l.Theta, Strategy: string(l.Strategy), Effort: l.Effort,
			})
		}
		out.Query = qr
	}
	if err != nil && errors.Is(err, joinopt.ErrDeadline) {
		// A deadline stop is a reported outcome, not a job failure.
		err = nil
	}
	if err != nil {
		// Keep the partial result (and checkpoint) but surface the error.
		j.mu.Lock()
		if res.Checkpoint != nil {
			j.checkpoint = res.Checkpoint
		}
		j.mu.Unlock()
		return out, err
	}
	return out, nil
}

// finish records the job's terminal state and publishes its run gauges.
func (s *Service) finish(j *Job, res *JobResult, err error) {
	now := time.Now()
	state := StateDone
	msg := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, msg = StateCanceled, "canceled"
	default:
		state, msg = StateFailed, err.Error()
	}
	if d := s.opts.Durable; d != nil {
		// Persist the result first, then journal the transition: replay
		// treats the journal as the commit record, so a finished entry
		// whose result write was lost just re-runs the job. Both happen
		// before the terminal state is published, so a client that has
		// seen a job finish never sees a restart re-run it.
		if res != nil {
			if payload, err := json.Marshal(res); err == nil {
				d.SaveResult(j.ID, payload)
			}
		}
		s.journal(durable.Record{Seq: j.seq, Event: durable.EventFinished, JobID: j.ID, State: state, Error: msg})
	}

	j.mu.Lock()
	j.state = state
	j.err = msg
	j.result = res
	j.finished = now
	j.mu.Unlock()
	j.events.Close()

	j.mu.Lock()
	drainCanceled := j.drainCanceled
	j.mu.Unlock()
	if s.opts.Cluster != nil && (j.req.Mode == ModeAdaptive || j.req.Mode == "") &&
		!(state == StateCanceled && drainCanceled) {
		// The job reached a terminal state here: retire the replicated
		// checkpoint so the standby never spuriously adopts it. This covers
		// Done, Failed, and user-canceled — a canceled or failed job left
		// in a peer's standby store would be resurrected (re-running
		// canceled work, or retrying a known failure) when the origin later
		// dies. Drain-canceled jobs are the one exception: they are
		// interrupted work, and Handoff decides their fate next (ship to a
		// successor, or keep the standby entry recoverable if no peer is
		// live). Asynchronous — a slow peer must not serialize completion;
		// Handoff re-retires terminal jobs synchronously on the exit path.
		go s.retireStandby(j)
	}

	m := s.opts.Metrics
	m.Counter(obs.Series(MetricJobsCompleted, "state", state)).Inc()
	if res != nil && res.Evaluation == nil {
		m.Gauge(obs.Series(MetricJobGood, "job", j.ID)).Set(float64(res.Good))
		m.Gauge(obs.Series(MetricJobBad, "job", j.ID)).Set(float64(res.Bad))
		m.Gauge(obs.Series(MetricJobModelTime, "job", j.ID)).Set(res.TotalTime)
	}
}

// Drain gracefully shuts the service down: admission stops (readyz turns
// 503), queued and running jobs get until ctx's deadline to finish, and
// stragglers are then canceled — adaptive runs checkpoint, so their partial
// results and resumable state are retained, not lost. Drain returns once
// every worker has exited; it is idempotent.
func (s *Service) Drain(ctx context.Context) {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		idle := s.sched.startDrain()
		select {
		case <-idle:
		case <-ctx.Done():
			s.sched.cancelInFlight(
				func(j *Job) { j.markDrainCanceled(); s.markCanceled(j) },
				func(j *Job) { j.markDrainCanceled(); j.cancel() },
			)
			<-idle
		}
		s.sched.wait()
		s.publishPool()
		close(s.drainedCh)
	})
	<-s.drainedCh
}

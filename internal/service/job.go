package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"joinopt"
	"joinopt/internal/obs"
)

// WorkloadSpec identifies a workload in the registry. It is the registry
// key: two requests with equal specs share one Task — and with it the
// trained machinery, the environment's static measurements, the
// perfect-knowledge statistics, and the shared extraction cache.
type WorkloadSpec struct {
	// Relations names the two extraction tasks to join ("HQ", "EX", "MG").
	// Defaults to ["HQ", "EX"].
	Relations [2]string `json:"relations"`
	NumDocs   int       `json:"num_docs,omitempty"`
	NumDocs2  int       `json:"num_docs2,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	TopK      int       `json:"top_k,omitempty"`
	// CacheBytes sizes the workload's shared extraction cache (0 uses the
	// service default; negative disables caching for this workload).
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

// PlanRequest pins an execute-mode job to one plan, mirroring the plan-mode
// flags of cmd/joinopt.
type PlanRequest struct {
	Algorithm string     `json:"algorithm"` // IDJN | OIJN | ZGJN
	Theta     [2]float64 `json:"theta,omitempty"`
	X         [2]string  `json:"x,omitempty"` // SC | FS | AQG per side
	OuterIdx  int        `json:"outer_idx,omitempty"`
}

// plan converts the request into a facade Plan, applying the same
// strategy normalization the CLI applies (query-retrieved sides carry no
// strategy).
func (p *PlanRequest) plan() (joinopt.Plan, error) {
	plan := joinopt.Plan{
		Algorithm: joinopt.Algorithm(p.Algorithm),
		Theta:     p.Theta,
		X:         [2]joinopt.Strategy{joinopt.Strategy(p.X[0]), joinopt.Strategy(p.X[1])},
		OuterIdx:  p.OuterIdx,
	}
	switch plan.Algorithm {
	case joinopt.IndependentJoin:
	case joinopt.OuterInnerJoin:
		if p.OuterIdx != 0 && p.OuterIdx != 1 {
			return plan, fmt.Errorf("outer_idx must be 0 or 1, got %d", p.OuterIdx)
		}
		plan.X[1-p.OuterIdx] = joinopt.QueryRetrieve
	case joinopt.ZigZagJoin:
		plan.X = [2]joinopt.Strategy{joinopt.QueryRetrieve, joinopt.QueryRetrieve}
	default:
		return plan, fmt.Errorf("unknown algorithm %q (want IDJN, OIJN, or ZGJN)", p.Algorithm)
	}
	for i, x := range plan.X {
		switch x {
		case joinopt.Scan, joinopt.FilteredScan, joinopt.AutoQueryGen, joinopt.QueryRetrieve:
		default:
			return plan, fmt.Errorf("unknown retrieval strategy %q for side %d (want SC, FS, or AQG)", x, i+1)
		}
		if plan.Theta[i] == 0 {
			plan.Theta[i] = 0.4
		}
	}
	return plan, nil
}

// Job modes.
const (
	ModeAdaptive = "adaptive" // the paper's §VI protocol (default for binary specs)
	ModeExecute  = "execute"  // run one pinned plan
	ModeOptimize = "optimize" // perfect-knowledge plan choice, no execution
	ModeQuery    = "query"    // plan and run an n-way query (default with a query spec)
)

// QuerySpec declares an n-way join in the v1 job spec: which extraction
// tasks to join (2..joinopt.MaxQueryRelations, repeats allowed) and which
// pairs share their join attribute (empty joins defaults to the chain
// R1—R2—…—Rk). It is the generalized form of the binary workload spec: a
// job carrying one runs in query mode (planned by the DP join-tree
// enumerator) or optimize mode, and names its relations here rather than in
// workload.relations.
type QuerySpec struct {
	Relations []string `json:"relations"`
	Joins     [][2]int `json:"joins,omitempty"`
	// MergeCost charges the execution this much time per intermediate join
	// tuple; the planner minimizes it by join-tree choice. Part of the
	// workload identity: jobs with different merge costs do not share a
	// task.
	MergeCost float64 `json:"merge_cost,omitempty"`
}

// key canonicalizes the spec for registry keying and cache namespacing:
// equivalent queries (e.g. explicit chain joins vs. defaulted ones) map to
// one string, distinct ones to distinct strings.
func (q *QuerySpec) key() string {
	if q == nil {
		return ""
	}
	joins := q.Joins
	if len(joins) == 0 {
		for i := 1; i < len(q.Relations); i++ {
			joins = append(joins, [2]int{i - 1, i})
		}
	}
	s := strings.Join(q.Relations, "-")
	for _, j := range joins {
		s += fmt.Sprintf("_j%d.%d", j[0], j[1])
	}
	if q.MergeCost != 0 {
		s += fmt.Sprintf("_tj%g", q.MergeCost)
	}
	return s
}

// JobRequest is the POST /v1/jobs payload.
type JobRequest struct {
	// Tenant attributes the job for quota accounting and metrics ("default"
	// when empty).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: higher runs first; equal priorities run in
	// submission order.
	Priority int `json:"priority,omitempty"`

	Workload WorkloadSpec `json:"workload"`

	// Query switches the job to the n-way form: the relations come from the
	// query spec (workload.relations must be left empty) and the job runs in
	// query or optimize mode. Binary-only knobs (plan, faults, retries,
	// failure_budget, resume_from, tuples) do not apply.
	Query *QuerySpec `json:"query,omitempty"`

	Mode string `json:"mode,omitempty"` // adaptive (default) | execute | optimize | query
	TauG int    `json:"tau_g"`
	TauB int    `json:"tau_b"`

	// Plan is required in execute mode and ignored otherwise.
	Plan *PlanRequest `json:"plan,omitempty"`

	// ResumeFrom continues a canceled adaptive job from its checkpoint. The
	// referenced job must belong to the same workload and have a resumable
	// checkpoint.
	ResumeFrom string `json:"resume_from,omitempty"`

	// Execution knobs, mirroring the CLI flags.
	Faults        string  `json:"faults,omitempty"` // fault-profile string, see joinopt.FaultProfileHelp
	Retries       int     `json:"retries,omitempty"`
	FailureBudget int     `json:"failure_budget,omitempty"`
	Deadline      float64 `json:"deadline,omitempty"`
	Workers       int     `json:"workers,omitempty"`      // optimizer plan-evaluation workers
	ExecWorkers   int     `json:"exec_workers,omitempty"` // pipelined extraction workers
	Shards        int     `json:"shards,omitempty"`       // corpus shards: shares of the speculation pool over the task's one cache

	// Tuples caps how many labelled join tuples the result carries (0 =
	// none; -1 = all).
	Tuples int `json:"tuples,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the GET /v1/jobs/{id} payload.
type JobStatus struct {
	ID string `json:"id"`
	// Node names the cluster replica holding the job (empty outside a
	// cluster). A forwarded submission reports the owner that accepted it.
	Node      string     `json:"node,omitempty"`
	Tenant    string     `json:"tenant"`
	Mode      string     `json:"mode"`
	State     string     `json:"state"`
	Priority  int        `json:"priority,omitempty"`
	Error     string     `json:"error,omitempty"`
	Resumable bool       `json:"resumable,omitempty"`
	Events    int        `json:"events"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// JobTuple is one labelled join tuple in a result payload.
type JobTuple struct {
	A    string `json:"a"`
	B    string `json:"b"`
	C    string `json:"c"`
	Good bool   `json:"good"`
}

// PlanEvalJSON is the optimizer's assessment of a plan (optimize mode).
type PlanEvalJSON struct {
	Plan          string  `json:"plan"`
	EstimatedGood float64 `json:"estimated_good"`
	EstimatedBad  float64 `json:"estimated_bad"`
	EstimatedTime float64 `json:"estimated_time"`
}

// QueryLeafJSON is one relation's configuration in a chosen n-ary plan.
type QueryLeafJSON struct {
	Relation string  `json:"relation"`
	Theta    float64 `json:"theta"`
	Strategy string  `json:"strategy"`
	Effort   int     `json:"effort"`
}

// QueryResultJSON is the n-ary portion of a query job's result: the chosen
// join tree and per-relation work, indexed in query order. The shared
// good/bad/time totals stay on the enclosing JobResult.
type QueryResultJSON struct {
	Plan   string          `json:"plan"`
	Tree   string          `json:"tree"`
	Leaves []QueryLeafJSON `json:"leaves"`

	MergeTime     float64   `json:"merge_time"`
	CacheSaved    []float64 `json:"cache_saved"`
	DocsProcessed []int     `json:"docs_processed"`
	DocsRetrieved []int     `json:"docs_retrieved"`
	Queries       []int     `json:"queries"`
	NodeTuples    []int     `json:"node_tuples"`
}

// JobResult is the GET /v1/jobs/{id}/result payload of a finished job.
type JobResult struct {
	Mode  string   `json:"mode"`
	Plans []string `json:"plans,omitempty"`

	Good      int     `json:"good"`
	Bad       int     `json:"bad"`
	Time      float64 `json:"time"`
	TotalTime float64 `json:"total_time"`
	// CacheSaved is extraction time per side the shared cache made free;
	// Time + ΣCacheSaved is invariant under cache warmth.
	CacheSaved    [2]float64 `json:"cache_saved"`
	DocsProcessed [2]int     `json:"docs_processed"`
	DocsRetrieved [2]int     `json:"docs_retrieved"`
	Queries       [2]int     `json:"queries"`
	DocsFailed    [2]int     `json:"docs_failed"`
	RetriesSpent  [2]int     `json:"retries_spent"`
	Degraded      bool       `json:"degraded,omitempty"`
	DeadlineHit   bool       `json:"deadline_hit,omitempty"`

	CheckpointErrs []string `json:"checkpoint_errs,omitempty"`
	Resumable      bool     `json:"resumable,omitempty"`

	Evaluation *PlanEvalJSON `json:"evaluation,omitempty"`
	Tuples     []JobTuple    `json:"tuples,omitempty"`

	// Query carries the n-ary details of a query-mode job joining three or
	// more relations (nil on binary jobs, including two-relation queries).
	Query *QueryResultJSON `json:"query,omitempty"`
}

// Job is one unit of scheduled work. All mutable fields are guarded by mu;
// the identity fields and the event log are write-once at construction.
type Job struct {
	ID       string
	Tenant   string
	Priority int
	seq      uint64

	req  JobRequest
	plan *joinopt.Plan // parsed, execute mode only
	// reqWire is req encoded once, write-once at construction: the
	// journal's submitted record, every checkpoint replication and the
	// drain handoff send these bytes. Nil when the service has neither a
	// journal nor a cluster.
	reqWire []byte
	// key is the canonical workload key (cluster routing + checkpoint
	// replication target); node is the cluster replica name serving the
	// job. Write-once at construction.
	key  string
	node string

	ctx    context.Context
	cancel context.CancelFunc
	events *eventLog

	mu         sync.Mutex
	state      string
	err        string
	result     *JobResult
	checkpoint *joinopt.AdaptiveCheckpoint
	// drainCanceled marks a cancellation issued by the drain itself, not a
	// user DELETE. Handoff only migrates drain-interrupted jobs: a
	// user-canceled job shipped to a peer would be resurrected, violating
	// the cancel contract.
	drainCanceled bool
	// standbys records every peer base URL this job's checkpoints were
	// replicated to. Retirement must reach all of them, not just the
	// current successor: if the successor changes mid-run (a transient
	// false-down), the earlier holder would otherwise keep a stale entry
	// that is adoptable forever.
	standbys map[string]struct{}
	// recovered is the checkpoint decoded from the durable store when this
	// job was rebuilt after a daemon restart: the run resumes from it
	// instead of starting over. Write-once during recovery, before the job
	// is enqueued.
	recovered *joinopt.AdaptiveCheckpoint
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// markDrainCanceled records that the cancellation about to land on this job
// comes from the drain, so Handoff knows it is interrupted work to migrate
// rather than a cancel to honor.
func (j *Job) markDrainCanceled() {
	j.mu.Lock()
	j.drainCanceled = true
	j.mu.Unlock()
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Node:      j.node,
		Tenant:    j.Tenant,
		Mode:      j.req.Mode,
		State:     j.state,
		Priority:  j.Priority,
		Error:     j.err,
		Resumable: j.checkpoint != nil,
		Events:    j.events.Len(),
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Result returns the finished job's result (nil while pending), the job
// state, and the failure message when failed.
func (j *Job) Result() (*JobResult, string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.err
}

// Checkpoint returns the resumable checkpoint captured when the job was
// canceled mid-adaptive-run (nil otherwise).
func (j *Job) Checkpoint() *joinopt.AdaptiveCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// terminal reports whether the job has finished (done, failed, canceled).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// eventLog is a job's append-only trace sink and broadcast hub: the run
// emits obs events into it, each encoded once into NDJSON, and any number
// of /events subscribers replay the bytes and then follow live appends, by
// byte offset, until the log closes. Appended bytes are immutable, so
// subscribers write released subslices lock-free.
type eventLog struct {
	mu  sync.Mutex
	buf []byte // one JSON line per event, exactly as obs.NDJSON writes it
	n   int    // events emitted
	// broken marks an event that failed to encode; like obs.NDJSON, the
	// log writes nothing after it, so the stream stops where an in-process
	// trace would.
	broken bool
	closed bool
	// wake closes on the next append or close. It is handed out only to
	// followers, so it is re-made only when one is waiting.
	wake    chan struct{}
	waiting bool
}

func newEventLog() *eventLog { return &eventLog{wake: make(chan struct{})} }

// Emit implements obs.Tracer.
func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.n++
	if l.broken {
		return
	}
	b, err := e.AppendJSON(l.buf)
	if err != nil {
		l.broken = true
		return
	}
	l.buf = append(b, '\n')
	if l.waiting {
		close(l.wake)
		l.wake = make(chan struct{})
		l.waiting = false
	}
}

// Close marks the log complete, clips its buffer to the bytes it holds and
// wakes every follower. Idempotent.
func (l *eventLog) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.buf = append(make([]byte, 0, len(l.buf)), l.buf...)
		close(l.wake)
	}
	l.mu.Unlock()
}

// Len returns the number of events emitted so far.
func (l *eventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// from returns the bytes appended at or after offset off, whether the log
// is closed, and a channel that closes on the next append or close.
func (l *eventLog) from(off int) (chunk []byte, closed bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	off = min(off, len(l.buf))
	if !l.closed {
		l.waiting = true
	}
	return l.buf[off:len(l.buf):len(l.buf)], l.closed, l.wake
}

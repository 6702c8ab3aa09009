package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"joinopt"
	"joinopt/internal/durable"
	"joinopt/internal/obs"
)

// cacheNamespace names a workload's slice of the durable cache tier. Cache
// keys are (side, doc, θ) within a workload, so everything that changes
// what a key extracts — relations, corpus sizes, seed, ranking — is in the
// namespace; for query workloads the canonical query string carries the
// relations. The key must be normalized.
func cacheNamespace(key regKey) string {
	spec := key.wl
	rels := fmt.Sprintf("%s-%s", spec.Relations[0], spec.Relations[1])
	if key.query != "" {
		rels = "q_" + key.query
	}
	return fmt.Sprintf("%s_n%d-%d_s%d_k%d", rels, spec.NumDocs, spec.NumDocs2, spec.Seed, spec.TopK)
}

// recover rebuilds the job store from the journal replay: finished jobs are
// reinstated with their persisted results, interrupted adaptive jobs resume
// from their last persisted checkpoint, and jobs that never ran are
// re-enqueued — all bypassing admission, since each was admitted (and
// journaled) before the crash. Runs during New, before the service serves.
func (s *Service) recover(rec *durable.Recovered) {
	m := s.opts.Metrics
	s.seq.Store(rec.MaxSeq)
	for _, rj := range rec.Jobs {
		var req JobRequest
		if err := json.Unmarshal(rj.Request, &req); err != nil {
			// The journaled request no longer parses: nothing to re-run.
			m.Counter(obs.Series(obs.MetricDurableErrs, "op", "replay")).Inc()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			ID:        rj.ID,
			Tenant:    rj.Tenant,
			Priority:  req.Priority,
			seq:       rj.Seq,
			req:       req,
			reqWire:   rj.Request,
			key:       CanonicalWorkloadKey(req),
			node:      s.selfNode(),
			ctx:       ctx,
			cancel:    cancel,
			events:    newEventLog(),
			submitted: time.Now(),
		}
		if rj.Finished() {
			if s.recoverFinished(j, rj) {
				continue
			}
			// The journal committed the job as done but its result payload
			// did not survive: re-run it below as if it were interrupted —
			// the journal is the commit record, the result file is cache.
			rj.State, rj.Error = "", ""
		}
		how := "requeued"
		if req.Mode == ModeExecute && req.Plan != nil {
			if p, err := req.Plan.plan(); err == nil {
				j.plan = &p
			}
		}
		if rj.Started && req.Mode == ModeAdaptive {
			if ck := s.loadCheckpoint(rj.ID); ck != nil {
				j.recovered = ck
				how = "resumed"
			}
		}
		j.state = StateQueued
		s.storeJob(j)
		s.sched.forceSubmit(j)
		m.Counter(obs.Series(obs.MetricJobsRecovered, "how", how)).Inc()
	}
	s.publishPool()
}

// recoverFinished reinstates a job that reached a terminal state before the
// crash, serving its persisted result (and, for canceled/failed adaptive
// jobs, its persisted checkpoint, so resume_from keeps working across
// restarts). It declines — returning false, job untouched — when the
// journal says done but the result payload is gone: that job must re-run.
func (s *Service) recoverFinished(j *Job, rj durable.RecoveredJob) bool {
	var res *JobResult
	if payload, ok := s.opts.Durable.LoadResult(rj.ID); ok {
		var r JobResult
		if err := json.Unmarshal(payload, &r); err == nil {
			res = &r
		} else {
			s.opts.Metrics.Counter(obs.Series(obs.MetricDurableErrs, "op", "snapshot")).Inc()
		}
	}
	if rj.State == StateDone && res == nil {
		return false
	}
	j.state = rj.State
	j.err = rj.Error
	j.result = res
	j.finished = time.Now()
	if rj.State != StateDone && rj.Started {
		j.checkpoint = s.loadCheckpoint(rj.ID)
	}
	j.events.Close()
	s.storeJob(j)
	s.opts.Metrics.Counter(obs.Series(obs.MetricJobsRecovered, "how", "completed")).Inc()
	return true
}

// loadCheckpoint loads and decodes a job's persisted checkpoint. A missing
// file is silent; a payload the codec rejects is counted — the store's own
// checksum passed, so this is a version skew or deeper damage — and the
// caller falls back to re-running from scratch.
func (s *Service) loadCheckpoint(id string) *joinopt.AdaptiveCheckpoint {
	payload, ok := s.opts.Durable.LoadCheckpoint(id)
	if !ok {
		return nil
	}
	ck, err := joinopt.DecodeCheckpoint(payload)
	if err != nil {
		s.opts.Metrics.Counter(obs.Series(obs.MetricDurableErrs, "op", "snapshot")).Inc()
		return nil
	}
	return ck
}

// journal appends one record to the durable store (a no-op without one).
func (s *Service) journal(r durable.Record) {
	if d := s.opts.Durable; d != nil {
		d.Append(r)
	}
}

// Degraded reports whether the durable layer has fallen back to
// memory-only operation (surfaced on /readyz; the service itself keeps
// accepting and running jobs).
func (s *Service) Degraded() (bool, string) {
	if d := s.opts.Durable; d != nil {
		return d.Degraded()
	}
	return false, ""
}

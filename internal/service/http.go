package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/obs"
)

// Handler builds the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202; 429 over capacity/quota)
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result finished result (202 while pending)
//	GET    /v1/jobs/{id}/events stream the execution trace as NDJSON
//	DELETE /v1/jobs/{id}        cancel (running adaptive jobs checkpoint)
//	GET    /v1/cluster          ring + member state (cluster mode; ?key=
//	                            resolves a workload key's owner)
//	POST   /v1/cluster/standby  intra-cluster checkpoint replication
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
//
// In cluster mode any replica accepts any request: submissions are
// forwarded (or 307-redirected, per Options.ForwardMode) to the workload's
// owner, and job lookups whose node-prefixed ID names another live replica
// are 307-redirected there.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	if s.opts.Cluster != nil {
		mux.HandleFunc("GET /v1/cluster", s.handleCluster)
		mux.HandleFunc("POST /v1/cluster/standby", s.handleStandby)
	}
	mux.Handle("GET /metrics", obs.Handler(s.opts.Metrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		// A degraded durable layer is a detail, not an outage: the daemon
		// still accepts and runs jobs (memory-only), so readiness stays 200
		// and the detail tells operators durability is gone.
		if deg, why := s.Degraded(); deg {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, "ready (degraded: %s)\n", why)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	return mux
}

// apiError is every non-2xx JSON body.
type apiError struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error, reason string) {
	writeJSON(w, status, apiError{Error: err.Error(), Reason: reason})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err, "bad_request")
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err, "bad_request")
		return
	}
	if c := s.opts.Cluster; c != nil && r.Header.Get(forwardHeader) == "" {
		if _, ownerURL, self := s.ownerFor(req); !self {
			if s.forwardSubmit(w, ownerURL, body) {
				return
			}
			// Forwarding failed (owner unreachable mid-transition): serve
			// locally — availability beats placement, and the run is
			// deterministic wherever it executes, just cache-cold here.
			s.opts.Metrics.Counter(obs.Series(cluster.MetricForwards, "kind", "fallback")).Inc()
		}
	}
	j, err := s.Submit(req)
	if err != nil {
		switch err {
		case ErrQueueFull, ErrTenantQuota:
			w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter/time.Second)))
			reason := "queue_full"
			if err == ErrTenantQuota {
				reason = "tenant_quota"
			}
			writeErr(w, http.StatusTooManyRequests, err, reason)
		case ErrDraining:
			writeErr(w, http.StatusServiceUnavailable, err, "draining")
		default:
			writeErr(w, http.StatusBadRequest, err, "bad_request")
		}
		return
	}
	if req.Query == nil {
		// The binary workload spec is the legacy job form: the query spec
		// expresses the same joins (and more). RFC 8594-style advice until
		// clients migrate.
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</v1/jobs>; rel="alternate"; title="use the query job form"`)
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// redirectJob routes a locally unknown cluster job ID to the replica whose
// name prefixes it (307, preserving the method). Local jobs always win the
// lookup — a migrated job is served by its adopter even though its ID names
// the dead origin.
func (s *Service) redirectJob(w http.ResponseWriter, r *http.Request, id string) bool {
	url, ok := s.routeJobID(id)
	if !ok {
		return false
	}
	s.opts.Metrics.Counter(obs.Series(cluster.MetricForwards, "kind", "redirect")).Inc()
	http.Redirect(w, r, url+r.URL.Path, http.StatusTemporaryRedirect)
	return true
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		if s.redirectJob(w, r, r.PathValue("id")) {
			return
		}
		writeErr(w, http.StatusNotFound, err, "not_found")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		if s.redirectJob(w, r, r.PathValue("id")) {
			return
		}
		writeErr(w, http.StatusNotFound, err, "not_found")
		return
	}
	res, state, msg := j.Result()
	switch state {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusAccepted, j.Status())
	default:
		// Failed and canceled jobs may still carry a partial result (and a
		// resumable checkpoint); ship the status alongside it.
		writeJSON(w, http.StatusOK, struct {
			ID     string     `json:"id"`
			State  string     `json:"state"`
			Error  string     `json:"error,omitempty"`
			Result *JobResult `json:"result,omitempty"`
		}{ID: j.ID, State: state, Error: msg, Result: res})
	}
}

// handleEvents streams the job's execution trace as NDJSON — one obs event
// per line, byte-identical to what an obs.NDJSON sink would write. The
// stream replays the log's bytes from the start, follows live appends with
// one write per new chunk, and ends when the job finishes (or the client
// disconnects).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		if s.redirectJob(w, r, r.PathValue("id")) {
			return
		}
		writeErr(w, http.StatusNotFound, err, "not_found")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	off := 0
	for {
		chunk, closed, wake := j.events.from(off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			off += len(chunk)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if closed {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		if s.redirectJob(w, r, r.PathValue("id")) {
			return
		}
		writeErr(w, http.StatusNotFound, err, "not_found")
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// forwardSubmit routes a submission to the workload's owner: a 307 in
// redirect mode, a transparent server-side re-POST (relaying the owner's
// response, 429s and all) in proxy mode. Returns false when the owner could
// not be reached — the caller serves locally instead.
func (s *Service) forwardSubmit(w http.ResponseWriter, ownerURL string, body []byte) bool {
	m := s.opts.Metrics
	if s.opts.ForwardMode == ForwardRedirect {
		m.Counter(obs.Series(cluster.MetricForwards, "kind", "redirect")).Inc()
		w.Header().Set("Location", ownerURL+"/v1/jobs")
		w.WriteHeader(http.StatusTemporaryRedirect)
		return true
	}
	req, err := http.NewRequest(http.MethodPost, ownerURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, "1")
	resp, err := s.opts.Cluster.Client().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		// The owner is up but not admitting (draining): fall back local so
		// a rolling restart never bounces clients.
		io.Copy(io.Discard, resp.Body)
		return false
	}
	m.Counter(obs.Series(cluster.MetricForwards, "kind", "proxy")).Inc()
	for _, h := range []string{"Content-Type", "Retry-After", "Deprecation", "Link"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// handleCluster reports this replica's fleet view; ?key= additionally
// resolves a workload key's owner.
func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	info := s.opts.Cluster.Snapshot(s.StandbyCount(), r.URL.Query().Get("key"))
	writeJSON(w, http.StatusOK, info)
}

// handleStandby accepts intra-cluster checkpoint replication and handoff
// messages.
func (s *Service) handleStandby(w http.ResponseWriter, r *http.Request) {
	var msg standbyWire
	if err := json.NewDecoder(r.Body).Decode(&msg); err != nil {
		writeErr(w, http.StatusBadRequest, err, "bad_request")
		return
	}
	if err := s.acceptStandby(msg); err != nil {
		if errors.Is(err, ErrDraining) {
			writeErr(w, http.StatusServiceUnavailable, err, "draining")
			return
		}
		writeErr(w, http.StatusBadRequest, err, "bad_request")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

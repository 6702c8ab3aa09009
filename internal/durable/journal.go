package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
)

// Journal events. A job's journal is its state machine on disk: submitted
// (carrying the full request), started, and finished (carrying the terminal
// state). Replay folds the events per job; whatever transition was not
// journaled before the crash is re-done after it.
const (
	EventSubmitted = "submitted"
	EventStarted   = "started"
	EventFinished  = "finished"
)

// Record is one journal entry.
type Record struct {
	Seq   uint64 `json:"seq"`
	Event string `json:"event"`
	JobID string `json:"job_id"`
	// Tenant and Request ride on submitted records only; recovery rebuilds
	// the job from the request bytes.
	Tenant  string          `json:"tenant,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	// State and Error ride on finished records (done | failed | canceled).
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// journalLine is the on-disk envelope of one record: the CRC covers the
// compact rec bytes, so a torn or bit-flipped line is detected before the
// record is believed.
type journalLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Append journals one job-state transition: encode, CRC, append, fsync.
// Failures are absorbed — counted under op=append/sync and, when
// persistent, degrading the store to memory-only — never surfaced to the
// job path. Append is a no-op once frozen or degraded.
func (s *Store) Append(r Record) {
	if s == nil {
		return
	}
	line, err := encodeRecord(r)
	if err != nil {
		s.mu.Lock()
		s.noteFailure("append", err)
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen || s.degraded || s.journal == nil {
		return
	}
	if err := s.opts.Faults.Write(); err != nil {
		s.noteFailure("append", err)
		return
	}
	if _, err := s.journal.Write(line); err != nil {
		s.noteFailure("append", err)
		return
	}
	if err := s.opts.Faults.Sync(); err != nil {
		s.noteFailure("sync", err)
		return
	}
	if err := s.journal.Sync(); err != nil {
		s.noteFailure("sync", err)
		return
	}
	s.noteSuccess()
}

// encodeRecord renders one CRC'd journal line, newline-terminated.
func encodeRecord(r Record) ([]byte, error) {
	rec, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(journalLine{CRC: crc(rec), Rec: rec})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// RecoveredJob is one job folded out of the journal, in submission order.
type RecoveredJob struct {
	Seq     uint64
	ID      string
	Tenant  string
	Request json.RawMessage
	// Started reports the job had begun executing when the daemon died; a
	// recovered checkpoint (if any) lets it resume instead of restart.
	Started bool
	// State is empty for jobs that never finished; otherwise the journaled
	// terminal state (done | failed | canceled) with its error message.
	State string
	Error string
}

// Finished reports whether the job reached a terminal state before the
// crash — recovery serves its persisted result instead of re-running it.
func (j *RecoveredJob) Finished() bool { return j.State != "" }

// Recovered is everything replayable from the state directory.
type Recovered struct {
	// Jobs in submission (seq) order.
	Jobs []RecoveredJob
	// MaxSeq is the highest journaled sequence number; the service resumes
	// its ID counter above it so recovered and fresh jobs never collide.
	MaxSeq uint64
	// CorruptLines counts journal lines rejected by checksum or parse.
	CorruptLines int
}

// replay folds the journal into per-job recovered state. Lines that fail
// the checksum or do not parse — including the torn tail a crash mid-append
// leaves — are counted and skipped; the journal is an append-only log, so
// every record after a damaged one still applies cleanly. Runs during Open,
// single-threaded.
func (s *Store) replay() *Recovered {
	rec := &Recovered{}
	data, err := os.ReadFile(s.journalPath())
	if err != nil {
		return rec // no journal yet: cold start
	}
	s.opts.Faults.Corrupt(data)

	byID := map[string]*RecoveredJob{}
	var order []string
	// The service queues a job before it journals the submission, so a
	// worker's started (even finished) record can precede the submitted
	// one; such transitions wait here for their job's submitted record.
	early := map[string][]Record{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var jl journalLine
		if err := json.Unmarshal(line, &jl); err != nil || crc(compactJSON(jl.Rec)) != jl.CRC {
			rec.CorruptLines++
			s.errsC("replay")
			continue
		}
		var r Record
		if err := json.Unmarshal(jl.Rec, &r); err != nil || r.JobID == "" {
			rec.CorruptLines++
			s.errsC("replay")
			continue
		}
		if r.Seq > rec.MaxSeq {
			rec.MaxSeq = r.Seq
		}
		j, ok := byID[r.JobID]
		if !ok {
			if r.Event != EventSubmitted {
				early[r.JobID] = append(early[r.JobID], r)
				continue
			}
			j = &RecoveredJob{Seq: r.Seq, ID: r.JobID}
			byID[r.JobID] = j
			order = append(order, r.JobID)
		}
		j.apply(r)
		if r.Event == EventSubmitted {
			for _, e := range early[r.JobID] {
				j.apply(e)
			}
			delete(early, r.JobID)
		}
	}
	// started/finished for a job whose submitted record was lost to
	// corruption: nothing to rebuild the job from.
	for _, rs := range early {
		for range rs {
			rec.CorruptLines++
			s.errsC("replay")
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return byID[order[a]].Seq < byID[order[b]].Seq })
	for _, id := range order {
		rec.Jobs = append(rec.Jobs, *byID[id])
	}
	return rec
}

// apply folds one journaled transition into the job.
func (j *RecoveredJob) apply(r Record) {
	switch r.Event {
	case EventSubmitted:
		j.Tenant, j.Request = r.Tenant, r.Request
	case EventStarted:
		j.Started = true
	case EventFinished:
		j.State, j.Error = r.State, r.Error
	}
}

// compact atomically rewrites the journal from the replayed state — one
// submitted record per job plus its reached transitions — dropping corrupt
// lines so damage does not accumulate, and shedding nothing recovery needs.
// Runs during Open, single-threaded.
func (s *Store) compact(rec *Recovered) error {
	var buf bytes.Buffer
	for _, j := range rec.Jobs {
		records := []Record{{Seq: j.Seq, Event: EventSubmitted, JobID: j.ID, Tenant: j.Tenant, Request: j.Request}}
		if j.Started {
			records = append(records, Record{Seq: j.Seq, Event: EventStarted, JobID: j.ID})
		}
		if j.Finished() {
			records = append(records, Record{Seq: j.Seq, Event: EventFinished, JobID: j.ID, State: j.State, Error: j.Error})
		}
		for _, r := range records {
			line, err := encodeRecord(r)
			if err != nil {
				return err
			}
			buf.Write(line)
		}
	}
	return s.writeFileAtomic(s.journalPath(), buf.Bytes(), true)
}

// compactJSON returns b with insignificant whitespace removed, so the CRC
// matches however the envelope was re-marshalled.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

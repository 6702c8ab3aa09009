package joinopt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"

	"joinopt/internal/join"
	"joinopt/internal/optimizer"
)

// CheckpointVersion is the wire-format version AdaptiveCheckpoint's
// MarshalJSON emits. Decoders accept exactly this version; anything else is
// rejected with a *CheckpointDecodeError so an old daemon never misparses a
// newer snapshot.
const CheckpointVersion = 1

// CheckpointDecodeError reports a checkpoint that could not be decoded:
// truncated or syntactically invalid bytes, an unknown wire version, a
// checksum mismatch (bit rot), or semantically impossible contents. Decoding
// never panics and never silently misparses — any defect surfaces as this
// type, so durable stores can discard the snapshot and fall back to a
// from-scratch run.
type CheckpointDecodeError struct {
	Reason string
	Err    error // underlying cause, when any
}

// Error renders the reason with its cause.
func (e *CheckpointDecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("joinopt: checkpoint decode: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("joinopt: checkpoint decode: %s", e.Reason)
}

// Unwrap exposes the underlying cause.
func (e *CheckpointDecodeError) Unwrap() error { return e.Err }

func decodeErr(reason string, err error) error {
	return &CheckpointDecodeError{Reason: reason, Err: err}
}

// checkpointEnvelope is the outer wire frame: a version gate and a CRC32
// (IEEE) over the compact form of the checkpoint payload, so reformatting
// whitespace stays valid while any content corruption is caught.
type checkpointEnvelope struct {
	Version    int             `json:"version"`
	CRC        uint32          `json:"crc"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// checkpointWire mirrors optimizer.Checkpoint field by field, with the
// non-serializable CheckpointErrs carried as strings.
type checkpointWire struct {
	Phase          int                  `json:"phase"`
	Best           optimizer.Eval       `json:"best"`
	Inputs         *optimizer.Inputs    `json:"inputs"`
	Decisions      []optimizer.Decision `json:"decisions,omitempty"`
	CheckpointErrs []string             `json:"checkpoint_errs,omitempty"`
	Switches       int                  `json:"switches,omitempty"`
	TotalTime      float64              `json:"total_time"`
	Exec           join.Snapshot        `json:"exec"`
	Target         [2]int               `json:"target"`
	Ext            int                  `json:"ext,omitempty"`
	Prev           [2]int               `json:"prev"`
}

// MarshalJSON encodes the checkpoint as a versioned, checksummed envelope —
// the durable wire format persisted by joinoptd's snapshot store.
func (ck *AdaptiveCheckpoint) MarshalJSON() ([]byte, error) {
	if ck == nil || ck.ck == nil {
		return nil, fmt.Errorf("joinopt: marshaling empty checkpoint")
	}
	c := ck.ck
	w := checkpointWire{
		Phase:     int(c.Phase),
		Best:      c.Best,
		Inputs:    c.Inputs,
		Decisions: c.Decisions,
		Switches:  c.Switches,
		TotalTime: c.TotalTime,
		Exec:      c.Exec,
		Target:    c.Target,
		Ext:       c.Ext,
		Prev:      c.Prev,
	}
	for _, e := range c.CheckpointErrs {
		w.CheckpointErrs = append(w.CheckpointErrs, e.Error())
	}
	raw, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("joinopt: marshaling checkpoint: %w", err)
	}
	// Write checkpointEnvelope's bytes around the payload by hand: handed
	// to encoding/json as a RawMessage, the payload would be scanned again
	// to compact what json.Marshal just wrote compact.
	b := make([]byte, 0, len(raw)+64)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, CheckpointVersion, 10)
	b = append(b, `,"crc":`...)
	b = strconv.AppendUint(b, uint64(crc32.ChecksumIEEE(raw)), 10)
	b = append(b, `,"checkpoint":`...)
	b = append(b, raw...)
	return append(b, '}'), nil
}

// DecodeCheckpoint decodes the wire bytes MarshalJSON produced, verifying
// the version and checksum before trusting any field. Every failure mode —
// truncation, bit flips, version skew, impossible contents, even top-level
// syntax garbage — returns a *CheckpointDecodeError, never a panic or a
// silently misparsed checkpoint.
func DecodeCheckpoint(data []byte) (*AdaptiveCheckpoint, error) {
	ck := &AdaptiveCheckpoint{}
	if err := ck.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return ck, nil
}

// UnmarshalJSON decodes a versioned checkpoint envelope; see
// DecodeCheckpoint. The receiver is left unmodified on error. (When invoked
// through a top-level json.Unmarshal, syntax errors in the surrounding
// document surface as encoding/json errors before this method runs; decode
// raw wire bytes with DecodeCheckpoint to get the typed error for every
// failure mode.)
func (ck *AdaptiveCheckpoint) UnmarshalJSON(data []byte) error {
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return decodeErr("invalid envelope", err)
	}
	if env.Version != CheckpointVersion {
		return decodeErr(fmt.Sprintf("unsupported version %d (want %d)", env.Version, CheckpointVersion), nil)
	}
	if len(env.Checkpoint) == 0 {
		return decodeErr("missing checkpoint payload", nil)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Checkpoint); err != nil {
		return decodeErr("invalid checkpoint payload", err)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != env.CRC {
		return decodeErr(fmt.Sprintf("checksum mismatch (payload %08x, envelope %08x)", got, env.CRC), nil)
	}
	var w checkpointWire
	if err := json.Unmarshal(env.Checkpoint, &w); err != nil {
		return decodeErr("invalid checkpoint payload", err)
	}
	if w.Phase < int(optimizer.PhaseExecute) || w.Phase > int(optimizer.PhaseFinish) {
		return decodeErr(fmt.Sprintf("impossible phase %d", w.Phase), nil)
	}
	if w.Inputs == nil {
		return decodeErr("missing optimizer inputs", nil)
	}
	if w.Exec.Steps < 0 {
		return decodeErr(fmt.Sprintf("impossible executor step count %d", w.Exec.Steps), nil)
	}
	c := &optimizer.Checkpoint{
		Phase:     optimizer.Phase(w.Phase),
		Best:      w.Best,
		Inputs:    w.Inputs,
		Decisions: w.Decisions,
		Switches:  w.Switches,
		TotalTime: w.TotalTime,
		Exec:      w.Exec,
		Target:    w.Target,
		Ext:       w.Ext,
		Prev:      w.Prev,
	}
	for _, s := range w.CheckpointErrs {
		c.CheckpointErrs = append(c.CheckpointErrs, errors.New(s))
	}
	ck.ck = c
	return nil
}

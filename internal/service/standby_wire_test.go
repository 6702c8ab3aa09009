package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"joinopt"
)

// TestStandbyWireMarshal: the standby envelope, written by hand around the
// request and checkpoint bytes, is exactly json.Marshal's encoding for every
// message form — a queued job's hold, a mid-run checkpoint, a retirement
// and a drain handoff — and a replica decodes and accepts each one sent.
func TestStandbyWireMarshal(t *testing.T) {
	// The tenant holds characters json.Marshal escapes.
	req := JobRequest{Tenant: "t<&>\u2028", TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 1000, Seed: 7}}
	reqWire, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	task, err := joinopt.NewHQJoinEX(joinopt.WorkloadParams{NumDocs: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var cks [][]byte
	if _, err := task.Run(context.Background(), joinopt.Requirement{TauG: 4, TauB: 40},
		joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			if wire, err := ck.MarshalJSON(); err == nil {
				cks = append(cks, wire)
			}
		})); err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		t.Fatal("the adaptive run wrote no checkpoint")
	}
	mid := cks[len(cks)/2]

	nodes := startFleet(t, 2)
	origin, peer := nodes[0], nodes[1]
	self := origin.cl.SelfName()
	held, handed := self+"-j000001", self+"-j000002"
	for _, f := range []struct {
		name     string
		w        standbyWire
		standbys int // entries the peer holds after accepting the message
	}{
		{"queued", standbyWire{ID: held, Tenant: req.Tenant, Origin: self, Request: reqWire}, 1},
		{"mid-run", standbyWire{ID: held, Tenant: req.Tenant, Origin: self, Request: reqWire, Checkpoint: mid}, 1},
		{"done", standbyWire{ID: held, Origin: self, Done: true}, 0},
		{"handoff", standbyWire{ID: handed, Tenant: req.Tenant, Origin: self, Request: reqWire, Checkpoint: mid, Activate: true}, 0},
	} {
		body := f.w.marshal()
		want, err := json.Marshal(f.w)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: envelope\n %s\nwant json.Marshal's\n %s", f.name, body, want)
		}
		var got standbyWire
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !bytes.Equal(got.marshal(), body) {
			t.Errorf("%s: decoded message re-encodes differently", f.name)
		}
		if err := origin.svc.sendStandby(peer.base, f.w); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if n := peer.svc.StandbyCount(); n != f.standbys {
			t.Errorf("%s: peer holds %d standby entries, want %d", f.name, n, f.standbys)
		}
	}
	awaitDone(t, peer.svc, handed, 60*time.Second)
}

// FuzzStandbyWire: for any body handleStandby's decoder accepts, the
// hand-written envelope is valid JSON that decodes back to the same
// message (an absent request reads back as null). Seeded with the four
// message forms TestStandbyWireMarshal checks and a truncated message.
func FuzzStandbyWire(f *testing.F) {
	const tenant = "t<&>\u2028" // characters json.Marshal escapes
	reqWire, err := json.Marshal(JobRequest{Tenant: tenant, TauG: 4, TauB: 40, Workload: WorkloadSpec{NumDocs: 1000, Seed: 7}})
	if err != nil {
		f.Fatal(err)
	}
	// The committed v1 checkpoint golden, rather than a run's checkpoint:
	// every fuzz worker repeats this set-up.
	ck, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoint_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	ck = bytes.TrimSpace(ck)
	for _, w := range []standbyWire{
		{ID: "n0-j000001", Tenant: tenant, Origin: "n0", Request: reqWire},
		{ID: "n0-j000001", Tenant: tenant, Origin: "n0", Request: reqWire, Checkpoint: ck},
		{ID: "n0-j000001", Origin: "n0", Done: true},
		{ID: "n0-j000002", Tenant: tenant, Origin: "n0", Request: reqWire, Checkpoint: ck, Activate: true},
	} {
		f.Add(w.marshal())
	}
	mid := standbyWire{ID: "n0-j000001", Tenant: tenant, Origin: "n0", Request: reqWire, Checkpoint: ck}.marshal()
	f.Add(mid[:len(mid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var w standbyWire
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
			return
		}
		body := w.marshal()
		if !json.Valid(body) {
			t.Fatalf("envelope of %q is not valid JSON: %q", data, body)
		}
		var back standbyWire
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("envelope %q does not decode: %v", body, err)
		}
		if w.Request == nil {
			w.Request = json.RawMessage("null")
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("envelope %q decodes to %+v, want %+v", body, back, w)
		}
	})
}

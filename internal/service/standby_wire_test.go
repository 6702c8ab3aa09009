package service

import (
	"bytes"
	"context"
	"encoding/json"
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

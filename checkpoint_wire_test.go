package joinopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"joinopt"
)

// TestCheckpointSerializedResumeMatchesUninterrupted is the codec-level
// recovery property: an interrupted run's checkpoint serialized to bytes,
// decoded in a fresh process image (a new Task over the same workload), and
// resumed produces the result of the uninterrupted run exactly.
func TestCheckpointSerializedResumeMatchesUninterrupted(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 400, Seed: 7}
	req := joinopt.Requirement{TauG: 8, TauB: 200}

	fresh, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	base, err := fresh.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	tk, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ct := &cancelTracer{cancel: cancel, trigger: 25}
	interrupted, err := tk.Run(ctx, req, joinopt.WithTracer(joinopt.NewTrace(ct)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if interrupted.Checkpoint == nil {
		t.Fatal("interrupted run carries no checkpoint")
	}

	wire, err := json.Marshal(interrupted.Checkpoint)
	if err != nil {
		t.Fatalf("encoding checkpoint: %v", err)
	}
	decoded, err := joinopt.DecodeCheckpoint(wire)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}

	// A brand-new Task simulates the restarted daemon: nothing survives the
	// crash but the wire bytes and the (deterministic) workload parameters.
	restarted, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := restarted.Run(context.Background(), req, joinopt.WithCheckpoint(decoded))
	if err != nil {
		t.Fatalf("resume from decoded checkpoint failed: %v", err)
	}

	if resumed.Outcome.GoodTuples != base.Outcome.GoodTuples ||
		resumed.Outcome.BadTuples != base.Outcome.BadTuples ||
		resumed.Outcome.Time != base.Outcome.Time ||
		resumed.TotalTime != base.TotalTime {
		t.Errorf("resumed run diverged: good %d/%d bad %d/%d time %v/%v total %v/%v",
			resumed.Outcome.GoodTuples, base.Outcome.GoodTuples,
			resumed.Outcome.BadTuples, base.Outcome.BadTuples,
			resumed.Outcome.Time, base.Outcome.Time,
			resumed.TotalTime, base.TotalTime)
	}
	bt, bb := base.Outcome.Tuples(), resumed.Outcome.Tuples()
	if len(bt) != len(bb) {
		t.Fatalf("tuple count diverged: %d vs %d", len(bb), len(bt))
	}
	for i := range bt {
		if bt[i] != bb[i] {
			t.Fatalf("tuple %d diverged: %+v vs %+v", i, bb[i], bt[i])
		}
	}
}

// TestShardedCheckpointResumeMatchesUninterrupted extends the codec-level
// recovery property to pipelined execution and to the checkpoints sharded
// runs once wrote: a fresh 4-worker task resumed from the decoded bytes of a
// 4-worker run's checkpoint reproduces the uninterrupted run — which is
// itself bit-identical to the sequential one — exactly, and so does one
// resumed from the same checkpoint in its legacy sharded form.
func TestShardedCheckpointResumeMatchesUninterrupted(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 400, Seed: 7}
	req := joinopt.Requirement{TauG: 8, TauB: 200}

	pooledTask := func() *joinopt.Task {
		tk, err := joinopt.NewTaskPair(params, "HQ", "EX")
		if err != nil {
			t.Fatal(err)
		}
		tk.ExecWorkers = 4
		return tk
	}

	base, err := pooledTask().Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ct := &cancelTracer{cancel: cancel, trigger: 25}
	interrupted, err := pooledTask().Run(ctx, req, joinopt.WithTracer(joinopt.NewTrace(ct)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if interrupted.Checkpoint == nil {
		t.Fatal("interrupted run carries no checkpoint")
	}

	wire, err := json.Marshal(interrupted.Checkpoint)
	if err != nil {
		t.Fatalf("encoding checkpoint: %v", err)
	}

	// Checkpoints written while plan search still priced shards carry
	// "Shards":4 in their inputs, right after CacheHitRate, and those of
	// sharded runs end with a per-shard progress vector, "shard_docs". A
	// state dir or standby store may still hold one; it must decode and
	// resume the same.
	var env struct {
		Version    int             `json:"version"`
		CRC        uint32          `json:"crc"`
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	if err := json.Unmarshal(wire, &env); err != nil {
		t.Fatal(err)
	}
	payload := env.Checkpoint
	at := bytes.Index(payload, []byte(`"CacheHitRate":[`))
	if at < 0 {
		t.Fatalf("checkpoint inputs carry no CacheHitRate: %s", payload)
	}
	at += bytes.IndexByte(payload[at:], ']') + 1
	end := len(payload) - 1 // the payload's closing brace
	env.Checkpoint = slices.Concat(payload[:at], []byte(`,"Shards":4`), payload[at:end],
		[]byte(`,"shard_docs":[9,11,8,10]`), payload[end:])
	env.CRC = crc32.ChecksumIEEE(env.Checkpoint)
	legacy, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		wire []byte
	}{{"current", wire}, {"with inputs Shards and shard_docs", legacy}} {
		decoded, err := joinopt.DecodeCheckpoint(c.wire)
		if err != nil {
			t.Fatalf("%s: decoding checkpoint: %v", c.name, err)
		}
		resumed, err := pooledTask().Run(context.Background(), req, joinopt.WithCheckpoint(decoded))
		if err != nil {
			t.Fatalf("%s: resume from decoded checkpoint failed: %v", c.name, err)
		}
		if resumed.Outcome.GoodTuples != base.Outcome.GoodTuples ||
			resumed.Outcome.BadTuples != base.Outcome.BadTuples ||
			resumed.Outcome.Time != base.Outcome.Time ||
			resumed.TotalTime != base.TotalTime {
			t.Errorf("%s: resumed 4-worker run diverged: good %d/%d bad %d/%d time %v/%v total %v/%v",
				c.name, resumed.Outcome.GoodTuples, base.Outcome.GoodTuples,
				resumed.Outcome.BadTuples, base.Outcome.BadTuples,
				resumed.Outcome.Time, base.Outcome.Time,
				resumed.TotalTime, base.TotalTime)
		}
	}

	// The 4-worker run itself must match the sequential task on the same
	// workload — workers never change what a run produces or charges.
	plain, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := plain.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if base.Outcome.GoodTuples != sequential.Outcome.GoodTuples ||
		base.Outcome.BadTuples != sequential.Outcome.BadTuples ||
		base.TotalTime != sequential.TotalTime {
		t.Errorf("4-worker run diverged from sequential: good %d/%d bad %d/%d total %v/%v",
			base.Outcome.GoodTuples, sequential.Outcome.GoodTuples,
			base.Outcome.BadTuples, sequential.Outcome.BadTuples,
			base.TotalTime, sequential.TotalTime)
	}
}

// TestUnshardedCheckpointWireOmitsShardFields: every checkpoint a cached
// adaptive run streams keeps the original v1 encoding — none of the
// per-shard progress or shard count that sharded runs once wrote.
func TestUnshardedCheckpointWireOmitsShardFields(t *testing.T) {
	tk, err := joinopt.NewTaskPair(joinopt.WorkloadParams{NumDocs: 400, Seed: 7}, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	tk.ExtractCacheBytes = 1 << 22
	streamed := 0
	_, err = tk.Run(context.Background(), joinopt.Requirement{TauG: 8, TauB: 200},
		joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
			wire, err := json.Marshal(ck)
			if err != nil {
				t.Fatalf("encoding checkpoint: %v", err)
			}
			for _, field := range []string{`"shard_docs"`, `"Shards"`} {
				if bytes.Contains(wire, []byte(field)) {
					t.Errorf("checkpoint carries %s: %s", field, wire)
				}
			}
			streamed++
		}))
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("adaptive run streamed no checkpoints")
	}
	if tk.ExtractionCacheStats().Misses == 0 {
		t.Error("run never consulted the extraction cache")
	}
}

// TestCheckpointSinkStreamsResumableCheckpoints: every checkpoint handed to
// a WithCheckpointSink callback is itself a valid resume point — encoding it
// and resuming a fresh task from the decoded bytes completes with the
// uninterrupted run's result.
func TestCheckpointSinkStreamsResumableCheckpoints(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 400, Seed: 7}
	req := joinopt.Requirement{TauG: 8, TauB: 200}

	tk, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	var wires [][]byte
	base, err := tk.Run(context.Background(), req, joinopt.WithCheckpointSink(func(ck *joinopt.AdaptiveCheckpoint) {
		b, err := json.Marshal(ck)
		if err != nil {
			t.Errorf("encoding streamed checkpoint: %v", err)
			return
		}
		wires = append(wires, b)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(wires) == 0 {
		t.Fatal("sink saw no checkpoints")
	}
	for i, wire := range wires {
		decoded, err := joinopt.DecodeCheckpoint(wire)
		if err != nil {
			t.Fatalf("checkpoint %d: decode: %v", i, err)
		}
		restarted, err := joinopt.NewTaskPair(params, "HQ", "EX")
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := restarted.Run(context.Background(), req, joinopt.WithCheckpoint(decoded))
		if err != nil {
			t.Fatalf("checkpoint %d: resume: %v", i, err)
		}
		if resumed.Outcome.GoodTuples != base.Outcome.GoodTuples ||
			resumed.Outcome.BadTuples != base.Outcome.BadTuples ||
			resumed.TotalTime != base.TotalTime {
			t.Errorf("checkpoint %d: resumed good=%d bad=%d total=%v, want good=%d bad=%d total=%v",
				i, resumed.Outcome.GoodTuples, resumed.Outcome.BadTuples, resumed.TotalTime,
				base.Outcome.GoodTuples, base.Outcome.BadTuples, base.TotalTime)
		}
	}
}

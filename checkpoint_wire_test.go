package joinopt_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// recovery property to scatter-gather execution: a sharded run's checkpoint
// carries per-shard progress over the wire, and a fresh sharded task resumed
// from the decoded bytes reproduces the uninterrupted sharded run — which is
// itself bit-identical to the unsharded one — exactly.
func TestShardedCheckpointResumeMatchesUninterrupted(t *testing.T) {
	params := joinopt.WorkloadParams{NumDocs: 400, Seed: 7}
	req := joinopt.Requirement{TauG: 8, TauB: 200}

	shardedTask := func() *joinopt.Task {
		tk, err := joinopt.NewTaskPair(params, "HQ", "EX")
		if err != nil {
			t.Fatal(err)
		}
		tk.Shards = 4
		return tk
	}

	base, err := shardedTask().Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ct := &cancelTracer{cancel: cancel, trigger: 25}
	interrupted, err := shardedTask().Run(ctx, req, joinopt.WithTracer(joinopt.NewTrace(ct)))
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
	if !bytes.Contains(wire, []byte(`"shard_docs"`)) {
		t.Errorf("sharded checkpoint wire carries no per-shard progress: %s", wire)
	}
	decoded, err := joinopt.DecodeCheckpoint(wire)
	if err != nil {
		t.Fatalf("decoding checkpoint: %v", err)
	}

	resumed, err := shardedTask().Run(context.Background(), req, joinopt.WithCheckpoint(decoded))
	if err != nil {
		t.Fatalf("resume from decoded checkpoint failed: %v", err)
	}
	if resumed.Outcome.GoodTuples != base.Outcome.GoodTuples ||
		resumed.Outcome.BadTuples != base.Outcome.BadTuples ||
		resumed.Outcome.Time != base.Outcome.Time ||
		resumed.TotalTime != base.TotalTime {
		t.Errorf("resumed sharded run diverged: good %d/%d bad %d/%d time %v/%v total %v/%v",
			resumed.Outcome.GoodTuples, base.Outcome.GoodTuples,
			resumed.Outcome.BadTuples, base.Outcome.BadTuples,
			resumed.Outcome.Time, base.Outcome.Time,
			resumed.TotalTime, base.TotalTime)
	}

	// The sharded run itself must match the unsharded task on the same
	// workload — sharding never changes what a run produces or charges.
	plain, err := joinopt.NewTaskPair(params, "HQ", "EX")
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := plain.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if base.Outcome.GoodTuples != unsharded.Outcome.GoodTuples ||
		base.Outcome.BadTuples != unsharded.Outcome.BadTuples ||
		base.TotalTime != unsharded.TotalTime {
		t.Errorf("sharded run diverged from unsharded: good %d/%d bad %d/%d total %v/%v",
			base.Outcome.GoodTuples, unsharded.Outcome.GoodTuples,
			base.Outcome.BadTuples, unsharded.Outcome.BadTuples,
			base.TotalTime, unsharded.TotalTime)
	}
}

// TestUnshardedCheckpointWireOmitsShardFields: a cached, unsharded
// adaptive run executes on a one-shard group, yet every checkpoint it
// streams keeps the original encoding — no per-shard progress and no shard
// count on the wire.
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
					t.Errorf("unsharded checkpoint carries %s: %s", field, wire)
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

package joinopt

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"joinopt/internal/join"
	"joinopt/internal/model"
	"joinopt/internal/optimizer"
	"joinopt/internal/retrieval"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCheckpoint is a hand-built checkpoint exercising every wire field:
// a committed OIJN plan mid-switch with a recorded checkpoint error, a
// non-trivial executor snapshot, and finish-phase coordinates.
func goldenCheckpoint() *AdaptiveCheckpoint {
	p := &model.RelationParams{
		D: 1000, Dg: 200, Db: 100, Ag: 150, Ab: 80,
		GoodFreq: []float64{0.7, 0.3}, BadFreq: []float64{0.9, 0.1},
		TP: 0.8, FP: 0.1, BadInGoodFrac: 0.3,
		Ctp: 0.85, Cfp: 0.15,
		AQG:  []model.QueryParam{{Hits: 10, GoodHits: 7, BadHits: 1}},
		TopK: 20, QPrec: 0.6,
	}
	in := &optimizer.Inputs{
		Thetas:     []float64{0.4, 0.8},
		P:          [2][]*model.RelationParams{{p, p}, {p, p}},
		Ov:         model.Overlaps{Agg: 12, Agb: 3, Abg: 4, Abb: 1},
		Costs:      [2]model.Costs{{TR: 1, TE: 5, TF: 0.1, TQ: 2}, {TR: 1, TE: 5, TF: 0.1, TQ: 2}},
		CasualHits: [2]float64{0.1, 0.2},
		Mentioned:  [2]int{50, 60},
		SeedCount:  5,
	}
	chosen := optimizer.Eval{
		Plan: optimizer.PlanSpec{
			JN: optimizer.OIJN, Theta: [2]float64{0.8, 0.4},
			X: [2]retrieval.Kind{retrieval.AQG, ""}, OuterIdx: 0,
		},
		Feasible: true, Effort: [2]int{120, 0},
		Quality: model.Quality{Good: 25.5, Bad: 8.25}, Time: 1234.5,
	}
	return &AdaptiveCheckpoint{ck: &optimizer.Checkpoint{
		Phase:          optimizer.PhaseFinish,
		Best:           chosen,
		Inputs:         in,
		Decisions:      []optimizer.Decision{{AtTime: 100, Chosen: chosen}, {AtTime: 600, Chosen: chosen, Switched: true}},
		CheckpointErrs: []error{errors.New("optimizer: checkpoint at t=500: no feasible plan")},
		Switches:       1,
		TotalTime:      987.5,
		Exec: join.Snapshot{
			Steps: 42, Time: 321.25, CacheSaved: [2]float64{10, 0},
			GoodPairs: 7, BadPairs: 3, JoinSize: 10,
			DocsProcessed: [2]int{40, 30}, DocsRetrieved: [2]int{45, 33},
			DocsFiltered: [2]int{5, 0}, Queries: [2]int{3, 2},
			DocsFailed: [2]int{1, 0}, RetriesSpent: [2]int{2, 0},
			Degraded: true,
		},
		Target: [2]int{180, 0},
		Ext:    2,
		Prev:   [2]int{120, 0},
	}}
}

// TestCheckpointGoldenRoundTrip pins the wire format: the golden checkpoint
// marshals to exactly the committed golden bytes, those bytes decode, and
// re-encoding the decoded checkpoint reproduces them bit-for-bit.
func TestCheckpointGoldenRoundTrip(t *testing.T) {
	goldenPath := filepath.Join("testdata", "checkpoint_v1.golden")
	got, err := json.Marshal(goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from golden:\n got %s\nwant %s", got, want)
	}

	var decoded AdaptiveCheckpoint
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatalf("decoding golden: %v", err)
	}
	again, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("re-encoding decoded checkpoint drifted:\n got %s\nwant %s", again, want)
	}
}

// TestCheckpointDecodeRejectsCorruption: every defect class — truncation,
// bit flips, version skew, impossible contents — yields a typed
// *CheckpointDecodeError and leaves the receiver untouched.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	valid, err := json.Marshal(goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x10
		return b
	}
	payloadAt := bytes.Index(valid, []byte(`"checkpoint":`)) + len(`"checkpoint":`) + 10
	cases := map[string][]byte{
		"empty":              {},
		"garbage":            []byte("not json at all"),
		"truncated":          valid[:len(valid)/2],
		"bit-flip payload":   flip(payloadAt),
		"version skew":       bytes.Replace(valid, []byte(`{"version":1,`), []byte(`{"version":9,`), 1),
		"null checkpoint":    []byte(`{"version":1,"crc":0,"checkpoint":null}`),
		"missing inputs":     []byte(`{"version":1,"crc":756102127,"checkpoint":{"phase":0}}`),
		"wrong crc":          bytes.Replace(valid, []byte(`"crc":`), []byte(`"crc":1`), 1),
		"json type mismatch": []byte(`{"version":1,"crc":0,"checkpoint":{"phase":"zero"}}`),
	}
	for name, data := range cases {
		ck, err := DecodeCheckpoint(data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
			continue
		}
		var de *CheckpointDecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: error %T (%v) is not a *CheckpointDecodeError", name, err, err)
		}
		if ck != nil {
			t.Errorf("%s: failed decode returned a checkpoint", name)
		}
	}
}

// TestCheckpointDecodeRejectsEveryPayloadBitFlip flips one bit in each byte
// of the envelope's payload region and requires the decoder to reject all of
// them — the CRC leaves no silent-misparse window over the checkpoint body.
func TestCheckpointDecodeRejectsEveryPayloadBitFlip(t *testing.T) {
	valid, err := json.Marshal(goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(valid, []byte(`"checkpoint":`)) + len(`"checkpoint":`)
	end := len(valid) - 1 // closing brace of the envelope
	for i := start; i < end; i++ {
		b := append([]byte(nil), valid...)
		b[i] ^= 1 << uint(i%8)
		if _, err := DecodeCheckpoint(b); err == nil {
			t.Fatalf("bit flip at byte %d (of %q) decoded successfully", i, valid[i])
		}
	}
}

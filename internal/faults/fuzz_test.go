package faults

import (
	"math"
	"testing"

	"joinopt/internal/retrieval"
)

// event is one observable injection outcome of a wrapper call.
type event struct {
	fault bool
	cost  float64
	msg   string
}

// harness drives the three wrapper kinds on both sides and records each
// stream's injection events.
type harness struct {
	dbs   [2]*FaultyDB
	strat [2]*FaultyStrategy
	class [2]*FaultyClassifier
	seq   [6][]event
}

func newHarness(p *Profile) *harness {
	h := &harness{}
	for side := 0; side < 2; side++ {
		h.dbs[side] = NewFaultyDB(testDB(1), p, side)
		h.strat[side] = NewFaultyStrategy(retrieval.NewScan(1<<30), p, side)
		h.class[side] = NewFaultyClassifier(p, side)
	}
	return h
}

// call drives one wrapper stream (0-5) and records its outcome.
func (h *harness) call(stream int) {
	side := stream % 2
	var ev event
	switch stream / 2 {
	case 0:
		doc, cost, err := h.dbs[side].Fetch(0)
		ev = event{fault: doc == nil, cost: cost}
		if err != nil {
			ev.msg = err.Error()
		}
	case 1:
		_, _, cost, err := h.strat[side].NextFallible()
		ev = event{fault: err != nil, cost: cost}
		if err != nil {
			ev.msg = err.Error()
		}
	case 2:
		cost, err := h.class[side].Call()
		ev = event{fault: err != nil, cost: cost}
		if err != nil {
			ev.msg = err.Error()
		}
	}
	h.seq[stream] = append(h.seq[stream], ev)
}

// FuzzInterleavingIndependence locks in the injector's core guarantee: with
// the same seed and profile, every wrapper stream produces the identical
// injected-fault sequence no matter how calls on different streams
// interleave. A global-RNG implementation would fail this immediately.
func FuzzInterleavingIndependence(f *testing.F) {
	f.Add(int64(1), 0.1, 1, []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(42), 0.5, 3, []byte{5, 5, 0, 1, 0, 2, 4})
	f.Add(int64(-7), 0.9, 2, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, prob float64, burst int, pattern []byte) {
		if prob < 0 || prob > 1 {
			t.Skip()
		}
		p := Uniform(seed, prob)
		for i := 0; i < 2; i++ {
			p.Fetch[i].Burst = burst
			p.Next[i].Burst = burst
			p.Classify[i].Burst = burst
			p.Fetch[i].ExtraCost = 1.5
			p.Next[i].ExtraCost = 1.5
			p.Classify[i].ExtraCost = 1.5
		}

		// Reference run: each stream drained sequentially.
		calls := [6]int{}
		for _, b := range pattern {
			calls[int(b)%6]++
		}
		ref := newHarness(p)
		for stream := 0; stream < 6; stream++ {
			for i := 0; i < calls[stream]; i++ {
				ref.call(stream)
			}
		}

		// Interleaved run: same per-stream call counts, pattern order.
		inter := newHarness(p)
		for _, b := range pattern {
			inter.call(int(b) % 6)
		}

		for stream := 0; stream < 6; stream++ {
			a, b := ref.seq[stream], inter.seq[stream]
			if len(a) != len(b) {
				t.Fatalf("stream %d: %d vs %d events", stream, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("stream %d call %d: sequential %+v != interleaved %+v",
						stream, i, a[i], b[i])
				}
			}
		}

		// And a full replay reproduces the interleaved run exactly.
		replay := newHarness(p)
		for _, b := range pattern {
			replay.call(int(b) % 6)
		}
		for stream := 0; stream < 6; stream++ {
			for i := range inter.seq[stream] {
				if inter.seq[stream][i] != replay.seq[stream][i] {
					t.Fatalf("stream %d call %d: replay diverged", stream, i)
				}
			}
		}
	})
}

// TestUniformSides checks that streams with the same op on different sides
// are decorrelated: at rate 0.5 the two fetch streams must not fault in
// lockstep.
func TestUniformSides(t *testing.T) {
	p := Uniform(9, 0.5)
	a := newInjector(p.Seed, OpFetch, 0, p.Fetch[0])
	b := newInjector(p.Seed, OpFetch, 1, p.Fetch[1])
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.next().fault == b.next().fault {
			same++
		}
	}
	if same > n*3/4 || same < n/4 {
		t.Errorf("sides agree on %d/%d calls; streams look correlated", same, n)
	}
}

// FuzzParse: Parse never panics, and every profile it accepts is one a run
// can finish under and bill — every probability in [0, 1], every cost finite
// and non-negative, and no transient next or classify fault certain to fire.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "rate=0.05,seed=9,burst=2,stall=0.01,trunc=0.02,cost=2,permanent=true",
		"rate=0.1,fetch=0.5", "rate=1", "next=1", "classify=1,rate=0.1", "rate=1,permanent=true",
		"rate=0.3,cost=NaN", "stall=0.5,cost=Inf", "rate=0.3,cost=-5", "rate=2", "burst=-3,rate=0.5",
		"seed=11,dwrite=0.5,dsync=0.25,dcorrupt=1", "rate=0.1,,", "rate", "=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p == nil {
			return
		}
		specs := []Spec{p.Disk.Write, p.Disk.Sync, p.Disk.Corrupt}
		for i := 0; i < 2; i++ {
			specs = append(specs, p.Fetch[i], p.Next[i], p.Classify[i], p.Truncate[i])
			for _, sp := range []Spec{p.Next[i], p.Classify[i]} {
				if !sp.Permanent && sp.Prob >= 1 {
					t.Fatalf("Parse(%q) accepted a transient fault certain to fire: %+v", s, sp)
				}
			}
		}
		for _, sp := range specs {
			if !(sp.Prob >= 0 && sp.Prob <= 1) || !(sp.StallProb >= 0 && sp.StallProb <= 1) {
				t.Fatalf("Parse(%q) accepted a probability outside [0, 1]: %+v", s, sp)
			}
			if !(sp.ExtraCost >= 0) || math.IsInf(sp.ExtraCost, 0) {
				t.Fatalf("Parse(%q) accepted a cost that is negative or not finite: %+v", s, sp)
			}
		}
	})
}

package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/retrieval"
)

func TestParse(t *testing.T) {
	p, err := Parse("rate=0.05,seed=9,burst=2,stall=0.01,trunc=0.02,cost=2,permanent=true")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 {
		t.Errorf("Seed = %d, want 9", p.Seed)
	}
	for i := 0; i < 2; i++ {
		for _, s := range []Spec{p.Fetch[i], p.Next[i], p.Classify[i]} {
			if s.Prob != 0.05 || s.Burst != 2 || !s.Permanent || s.ExtraCost != 2 || s.StallProb != 0.01 {
				t.Errorf("side %d spec = %+v", i, s)
			}
		}
		if p.Truncate[i].Prob != 0.02 {
			t.Errorf("Truncate[%d].Prob = %g, want 0.02", i, p.Truncate[i].Prob)
		}
	}

	p, err = Parse("rate=0.1,fetch=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Fetch[0].Prob != 0.5 || p.Next[0].Prob != 0.1 || p.Classify[1].Prob != 0.1 {
		t.Errorf("per-op override: fetch=%g next=%g classify=%g", p.Fetch[0].Prob, p.Next[0].Prob, p.Classify[1].Prob)
	}

	if p, err := Parse(""); p != nil || err != nil {
		t.Errorf("Parse(\"\") = %v, %v; want nil, nil", p, err)
	}
	for _, bad := range []string{"rate", "rate=x", "bogus=1", "rate=0.1,,"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}

	// Profiles a run cannot finish under or bill: each error names the key.
	for _, c := range []struct{ profile, key string }{
		{"rate=1", "rate"},
		{"next=1", "next"},
		{"rate=0.1,classify=1", "classify"},
		{"rate=1,next=0.5", "rate"},
		{"rate=2", "rate"},
		{"fetch=-0.5", "fetch"},
		{"trunc=1.5", "trunc"},
		{"stall=NaN", "stall"},
		{"dcorrupt=Inf", "dcorrupt"},
		{"rate=0.3,cost=NaN", "cost"},
		{"stall=0.5,cost=Inf", "cost"},
		{"stall=0.5,cost=-Inf", "cost"},
		{"rate=0.3,cost=-5", "cost"},
	} {
		_, err := Parse(c.profile)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.profile)
		} else if want := fmt.Sprintf("%q", c.key); !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) error %q does not name %s", c.profile, err, want)
		}
	}
	// Profiles that finish: a certain fetch fault loses the document and
	// moves on, and a permanent pull fault ends the stream.
	for _, ok := range []string{"rate=0.9", "fetch=1", "rate=1,permanent=true", "next=1,permanent=true", "rate=0,cost=0", "dwrite=1,dsync=1,dcorrupt=1"} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q): %v", ok, err)
		}
	}
}

func TestZero(t *testing.T) {
	if !Uniform(3, 0).Zero() {
		t.Error("Uniform(3, 0) should be Zero")
	}
	if Uniform(3, 0.1).Zero() {
		t.Error("Uniform(3, 0.1) should not be Zero")
	}
	p := &Profile{}
	p.Truncate[1] = Spec{Prob: 0.1}
	if p.Zero() {
		t.Error("profile with truncation should not be Zero")
	}
}

func TestErrorTemporary(t *testing.T) {
	e := &Error{Op: OpFetch, Side: 0, Call: 3, Transient: true}
	if !e.Temporary() {
		t.Error("transient error should be Temporary")
	}
	if (&Error{Transient: false}).Temporary() {
		t.Error("permanent error should not be Temporary")
	}
	var err error = e
	var fe *Error
	if !errors.As(err, &fe) {
		t.Error("errors.As should unwrap *Error")
	}
}

// TestInjectorRate checks the injected fault rate converges on Prob.
func TestInjectorRate(t *testing.T) {
	const n = 20000
	for _, prob := range []float64{0.01, 0.1, 0.5} {
		in := newInjector(7, OpFetch, 0, Spec{Prob: prob})
		faults := 0
		for i := 0; i < n; i++ {
			if in.next().fault {
				faults++
			}
		}
		got := float64(faults) / n
		if math.Abs(got-prob) > 0.02 {
			t.Errorf("prob %g: observed rate %g", prob, got)
		}
	}
}

// TestInjectorBurst checks that once a fault fires, exactly Burst
// consecutive calls fault (bursts can chain if a fresh draw fires).
func TestInjectorBurst(t *testing.T) {
	in := newInjector(11, OpNext, 1, Spec{Prob: 0.05, Burst: 3})
	run := 0
	runs := map[int]int{}
	for i := 0; i < 50000; i++ {
		if in.next().fault {
			run++
		} else if run > 0 {
			runs[run]++
			run = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no fault bursts observed")
	}
	for length := range runs {
		if length%3 != 0 {
			// A run is one or more chained bursts; every run length must be
			// a multiple of Burst unless independent draws overlapped, which
			// chaining makes impossible here (burst continuation wins).
			t.Errorf("burst run of length %d not a multiple of 3", length)
		}
	}
}

func TestInjectorCostAndStalls(t *testing.T) {
	in := newInjector(5, OpClassify, 0, Spec{Prob: 0.2, StallProb: 0.3, ExtraCost: 2.5})
	for i := 0; i < 1000; i++ {
		in.next()
	}
	c := in.counts
	if c.Faults == 0 || c.Stalls == 0 {
		t.Fatalf("expected both faults and stalls, got %+v", c)
	}
	want := float64(c.Faults+c.Stalls) * 2.5
	if math.Abs(c.ExtraCost-want) > 1e-9 {
		t.Errorf("ExtraCost = %g, want %g", c.ExtraCost, want)
	}
}

func testDB(n int) *corpus.DB {
	db := &corpus.DB{Name: "test"}
	for i := 0; i < n; i++ {
		db.Docs = append(db.Docs, &corpus.Document{ID: i, Text: fmt.Sprintf("doc %d body ….", i)})
	}
	return db
}

func TestFaultyDBZeroProfile(t *testing.T) {
	db := testDB(10)
	f := NewFaultyDB(db, &Profile{Seed: 1}, 0)
	for i := 0; i < 10; i++ {
		doc, cost, err := f.Fetch(i)
		if err != nil || cost != 0 || doc != db.Doc(i) {
			t.Fatalf("Fetch(%d) = %v, %g, %v; want passthrough", i, doc, cost, err)
		}
	}
	if c := f.Counts(); c != (Counts{}) {
		t.Errorf("Counts = %+v, want zero", c)
	}
}

func TestFaultyDBPermanentFault(t *testing.T) {
	p := &Profile{Seed: 2}
	p.Fetch[1] = Spec{Prob: 1, Permanent: true, ExtraCost: 3}
	f := NewFaultyDB(testDB(4), p, 1)
	doc, cost, err := f.Fetch(0)
	if doc != nil || cost != 3 {
		t.Fatalf("Fetch = %v, %g; want nil doc, cost 3", doc, cost)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != OpFetch || fe.Side != 1 || fe.Temporary() {
		t.Fatalf("error = %v, want permanent fetch fault on side 1", err)
	}
}

func TestFaultyDBTruncation(t *testing.T) {
	p := &Profile{Seed: 4}
	p.Truncate[0] = Spec{Prob: 1, ExtraCost: 1}
	db := testDB(3)
	f := NewFaultyDB(db, p, 0)
	doc, cost, err := f.Fetch(2)
	if err != nil {
		t.Fatal(err)
	}
	orig := db.Doc(2)
	if doc == orig || len(doc.Text) >= len(orig.Text) {
		t.Fatalf("expected truncated copy, got %q (orig %q)", doc.Text, orig.Text)
	}
	for _, r := range doc.Text {
		if r == 0xFFFD {
			t.Fatalf("truncation split a rune: %q", doc.Text)
		}
	}
	if cost != 1 {
		t.Errorf("cost = %g, want 1", cost)
	}
	if c := f.Counts(); c.Truncated != 1 {
		t.Errorf("Truncated = %d, want 1", c.Truncated)
	}
	if db.Doc(2) != orig {
		t.Error("truncation must not mutate the database")
	}
}

// TestFaultyStrategyResumes checks that a faulted pull does not advance the
// underlying stream: after the fault clears, pulls resume without skipping.
func TestFaultyStrategyResumes(t *testing.T) {
	p := &Profile{Seed: 6}
	p.Next[0] = Spec{Prob: 0.3}
	fs := NewFaultyStrategy(retrieval.NewScan(50), p, 0)
	var got []int
	for {
		id, ok, _, err := fs.NextFallible()
		if err != nil {
			continue // transient: retry
		}
		if !ok {
			break
		}
		got = append(got, id)
	}
	if len(got) != 50 {
		t.Fatalf("retrieved %d docs, want 50", len(got))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("got[%d] = %d; faulted pulls must not skip documents", i, id)
		}
	}
	if fs.inj.counts.Faults == 0 {
		t.Error("expected some injected faults at rate 0.3")
	}
}

// TestFaultyStrategyTransparentDelegates checks the plain Strategy methods
// never inject.
func TestFaultyStrategyTransparentDelegates(t *testing.T) {
	p := &Profile{Seed: 6}
	p.Next[0] = Spec{Prob: 1, Permanent: true}
	fs := NewFaultyStrategy(retrieval.NewScan(5), p, 0)
	for i := 0; i < 5; i++ {
		id, ok := fs.Next()
		if !ok || id != i {
			t.Fatalf("plain Next() = %d, %v; must bypass injection", id, ok)
		}
	}
	if fs.inj.counts.Faults != 0 {
		t.Error("plain Next must not consume the injection stream")
	}
}

func TestFaultyClassifier(t *testing.T) {
	p := &Profile{Seed: 8}
	p.Classify[1] = Spec{Prob: 1, ExtraCost: 0.5}
	fc := NewFaultyClassifier(p, 1)
	cost, err := fc.Call()
	if err == nil || cost != 0.5 {
		t.Fatalf("Call = cost %g, err %v; want injected fault", cost, err)
	}
	var fe *Error
	if !errors.As(err, &fe) || !fe.Temporary() {
		t.Fatalf("error = %v, want transient classify fault", err)
	}
}

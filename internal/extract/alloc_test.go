package extract

import (
	"testing"

	"joinopt/internal/index"
	"joinopt/internal/relation"
)

// The extraction hot path is what the pipelined executor parallelizes, so
// its allocation behaviour decides whether workers scale or fight the
// allocator and GC. These tests mirror the index package's SearchInto
// alloc guard: once the pooled scratch (token/entity/mask buffers, context
// and dedup maps, intern table) is warm, a full extraction pass must stay
// within a small per-document allocation budget — only the escaping result
// slices may allocate, never the per-sentence machinery.

// TestTokenizeIntoWarmZeroAlloc: with a warm buffer and intern table,
// tokenization allocates nothing — lower-case spans are substrings of the
// input and mixed-case spans resolve through the interner.
func TestTokenizeIntoWarmZeroAlloc(t *testing.T) {
	texts := []string{
		"Acme Dynamics is based in Pine Bluff.",
		"THE quick Brown fox JUMPED over 42 lazy dogs.",
		"plain lower case text with no upper at all",
	}
	in := index.Interner{}
	var buf []string
	for _, s := range texts { // warm buffer and interner
		buf = index.TokenizeInto(s, buf[:0], in)
	}
	for _, s := range texts {
		allocs := testing.AllocsPerRun(100, func() {
			buf = index.TokenizeInto(s, buf[:0], in)
		})
		if allocs != 0 {
			t.Errorf("TokenizeInto(%q) with warm buffer+interner: %.1f allocs/op, want 0", s, allocs)
		}
	}
}

// TestTagIntoWarmZeroAlloc: entity tagging with caller-owned buffers must
// not allocate once the buffers have grown to the sentence's size.
func TestTagIntoWarmZeroAlloc(t *testing.T) {
	g := testGazetteer()
	tagger := NewTagger(g)
	tokens := index.Tokenize(g.Companies[0] + " moved to " + g.Locations[0] + " with " + g.Persons[0])
	ents, covered := tagger.TagInto(tokens, nil, nil)
	if len(ents) == 0 {
		t.Fatalf("tagger found no entities in %v", tokens)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ents, covered = tagger.TagInto(tokens, ents, covered)
	})
	if allocs != 0 {
		t.Errorf("TagInto with warm buffers: %.1f allocs/op, want 0", allocs)
	}
}

// TestScanAllocBudget bounds the full sentence-level pass: per document,
// only the escaping candidate slice may allocate. The pre-pool pipeline
// spent tens of allocations per sentence (token slices, per-token lowered
// strings, entity slices, masks, context maps); the budget pins the pooled
// regime so it cannot silently creep back.
func TestScanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds in plain go test")
	}
	db, g := testCorpus(t, 7)
	sys := hqSystem(t, g)
	for _, d := range db.Docs { // warm the scratch pool and interner
		sys.Scan(d.Text)
	}
	perDoc := testing.AllocsPerRun(5, func() {
		for _, d := range db.Docs {
			sys.Scan(d.Text)
		}
	}) / float64(len(db.Docs))
	// Documents average several sentences; 4 allocations covers candidate
	// slice growth with headroom while staying an order of magnitude below
	// the unpooled pipeline.
	if perDoc > 4 {
		t.Errorf("Scan with warm scratch: %.2f allocs per document, want <= 4", perDoc)
	}
}

// TestExtractAllocBudget bounds the executor-visible entry point (scan +
// threshold + dedup + sort): only the emitted tuple slice may allocate on
// top of Scan's candidates.
func TestExtractAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the budget holds in plain go test")
	}
	db, g := testCorpus(t, 11)
	sys := hqSystem(t, g)
	for _, d := range db.Docs {
		sys.Extract(d.Text, 0.4)
	}
	perDoc := testing.AllocsPerRun(5, func() {
		for _, d := range db.Docs {
			sys.Extract(d.Text, 0.4)
		}
	}) / float64(len(db.Docs))
	if perDoc > 6 {
		t.Errorf("Extract with warm scratch: %.2f allocs per document, want <= 6", perDoc)
	}
}

// TestExtractCachedAllocBudget covers the memoized path the executors
// read: with a table's rows filled, an extraction by document ID pays only
// for the tuple slice it emits.
func TestExtractCachedAllocBudget(t *testing.T) {
	db, g := testCorpus(t, 13)
	tab := hqSystem(t, g).NewTable(db, relation.NewValues())
	for id := range db.Docs {
		tab.Extract(id, 0.4)
	}
	perDoc := testing.AllocsPerRun(5, func() {
		for id := range db.Docs {
			tab.Extract(id, 0.4)
		}
	}) / float64(len(db.Docs))
	if perDoc > 3 {
		t.Errorf("Extract through a filled table: %.2f allocs per document, want <= 3", perDoc)
	}
}

// TestAppendEntriesZeroAlloc covers the path the executors read without a
// pipeline: with a table's rows filled and a reused buffer, reading a
// document's entries allocates nothing at all.
func TestAppendEntriesZeroAlloc(t *testing.T) {
	db, g := testCorpus(t, 13)
	tab := hqSystem(t, g).NewTable(db, relation.NewValues())
	var buf []relation.Entry
	emitted := 0
	for id := range db.Docs {
		buf = tab.AppendEntries(buf[:0], id, 0.4)
		emitted += len(buf)
	}
	if emitted == 0 {
		t.Fatal("corpus emits no tuples at θ=0.4")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for id := range db.Docs {
			buf = tab.AppendEntries(buf[:0], id, 0.4)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendEntries through a filled table: %.1f allocs per pass, want 0", allocs)
	}
}

package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/extract"
	"joinopt/internal/obs"
	"joinopt/internal/relation"
	"joinopt/internal/stat"
	"joinopt/internal/textgen"
)

// refState is the string-keyed reference the integer State is checked
// against: the map implementation the executors counted with before
// relations counted over dictionary IDs — occurrence maps keyed by join
// value, per-value occurrence lists, and a labelled result map written for
// every joined pair.
type refState struct {
	golds   [2]*relation.Gold
	tuples  [2]map[relation.Tuple]int
	goodOcc [2]map[string]int
	badOcc  [2]map[string]int
	byVal   [2]map[string][]refOcc
	result  map[relation.JoinTuple]bool
	events  []string // tuple.extracted and tuple.joined, in emission order

	goodPairs, badPairs, totalPairs int
}

type refOcc struct {
	t    relation.Tuple
	good bool
}

func newRefState(g1, g2 *relation.Gold) *refState {
	r := &refState{golds: [2]*relation.Gold{g1, g2}, result: map[relation.JoinTuple]bool{}}
	for i := range r.tuples {
		r.tuples[i] = map[relation.Tuple]int{}
		r.goodOcc[i] = map[string]int{}
		r.badOcc[i] = map[string]int{}
		r.byVal[i] = map[string][]refOcc{}
	}
	return r
}

func (r *refState) add(i int, t relation.Tuple) {
	good := r.golds[i] == nil || r.golds[i].IsGood(t)
	r.tuples[i][t]++
	if good {
		r.goodOcc[i][t.A1]++
	} else {
		r.badOcc[i][t.A1]++
	}
	otherGood := r.goodOcc[1-i][t.A1]
	r.totalPairs += otherGood + r.badOcc[1-i][t.A1]
	if good {
		r.goodPairs += otherGood
	}
	r.badPairs = r.totalPairs - r.goodPairs
	r.byVal[i][t.A1] = append(r.byVal[i][t.A1], refOcc{t: t, good: good})
	r.events = append(r.events, fmt.Sprintf("extracted %d %s %v", i+1, t.A1, good))
	for _, o := range r.byVal[1-i][t.A1] {
		jt := relation.JoinTuple{A: t.A1, B: t.A2, C: o.t.A2}
		if i == 1 {
			jt.B, jt.C = o.t.A2, t.A2
		}
		if prev, ok := r.result[jt]; ok {
			r.result[jt] = prev && good && o.good
		} else {
			r.result[jt] = good && o.good
		}
		r.events = append(r.events, fmt.Sprintf("joined %s %v", t.A1, good && o.good))
	}
}

func (r *refState) joinTuples() []relation.LabeledJoinTuple {
	out := make([]relation.LabeledJoinTuple, 0, len(r.result))
	for jt, good := range r.result {
		out = append(out, relation.LabeledJoinTuple{Tuple: jt, Good: good})
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a].Tuple, out[b].Tuple
		if x.A != y.A {
			return x.A < y.A
		}
		if x.B != y.B {
			return x.B < y.B
		}
		return x.C < y.C
	})
	return out
}

func (r *refState) valueCounts(i int) map[string]int {
	out := map[string]int{}
	for a, n := range r.goodOcc[i] {
		out[a] += n
	}
	for a, n := range r.badOcc[i] {
		out[a] += n
	}
	return out
}

// oracleCorpora generates an HQ and an EX database over one gazetteer with
// overlapping join values, plus the IE systems of both tasks.
func oracleCorpora(t *testing.T) (*textgen.Gazetteer, [2]*corpus.DB, [2]textgen.TaskVocab) {
	t.Helper()
	g := textgen.NewGazetteer(300, 240, 120)
	vocabs := [2]textgen.TaskVocab{textgen.VocabHQ, textgen.VocabEX}
	seconds := [2][]string{g.Locations, g.Persons}
	var dbs [2]*corpus.DB
	for i, v := range vocabs {
		spec := corpus.RelationSpec{
			Vocab:         v,
			Schema:        relation.Schema{Name: v.Task, Attr1: "Company", Attr2: "Second"},
			GoodValues:    g.Companies[i*40 : i*40+100],
			BadValues:     g.Companies[60:140],
			GoodSeconds:   seconds[i][:50],
			BadSeconds:    seconds[i][50:100],
			GoodFreq:      stat.MustPowerLaw(2.0, 10),
			BadFreq:       stat.MustPowerLaw(2.2, 8),
			NumGoodDocs:   90,
			NumBadDocs:    40,
			BadInGoodRate: 0.3,
		}
		db, err := corpus.Generate(corpus.Config{
			Name: v.Task, NumDocs: 400, Seed: int64(31 + i),
			Relations:  []corpus.RelationSpec{spec},
			CasualRate: 0.25, CasualPool: g.Companies,
		})
		if err != nil {
			t.Fatal(err)
		}
		dbs[i] = db
	}
	return g, dbs, vocabs
}

// TestStateMatchesStringKeyedReference drives the integer Extracted and
// State with random occurrence sequences and checks them against refState:
// pair counts, distinct join size, the labelled join tuples, value counts,
// relation sizes and the tuple.extracted/tuple.joined event order. Entries
// come from every path the executors take — table rows at random θ,
// resolved extractions whose row may be unfilled (a cache-tier hit), and
// tuples no row holds (a fault-truncated copy, or a made-up second
// attribute) — and from nil-gold tables, which label every tuple good.
// Fresh tables per trial fill in a random order, so IDs differ per trial.
func TestStateMatchesStringKeyedReference(t *testing.T) {
	g, dbs, vocabs := oracleCorpora(t)
	tagger := extract.NewTagger(g)
	thetas := []float64{0.2, 0.4, 0.6, 0.8}
	trial := 0
	for _, nilGold := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		var systems [2]*extract.System
		var golds [2]*relation.Gold
		for i, v := range vocabs {
			task := v.Task
			if nilGold[i] {
				task = "unhosted" // no database hosts it: db.Gold(task) is nil
			} else {
				golds[i] = dbs[i].Gold(task)
			}
			patterns := make([]extract.Pattern, len(v.Patterns))
			for k, terms := range v.Patterns {
				patterns[k] = extract.NewPattern(terms)
			}
			sys, err := extract.NewSystem(task, v.Slot1, v.Slot2, patterns, tagger)
			if err != nil {
				t.Fatal(err)
			}
			systems[i] = sys
		}
		for rep := 0; rep < 4; rep++ {
			trial++
			rng := rand.New(rand.NewSource(int64(trial)))
			values := relation.NewValues()
			tabs := [2]*extract.Table{systems[0].NewTable(dbs[0], values), systems[1].NewTable(dbs[1], values)}
			st := newState(tabs[0].Dict(), tabs[1].Dict())
			ring := obs.NewRing(1 << 20)
			st.Trace = obs.New(ring)
			ref := newRefState(golds[0], golds[1])
			for op := 0; op < 600; op++ {
				i := rng.Intn(2)
				tab, db := tabs[i], dbs[i]
				doc, theta := rng.Intn(db.Size()), thetas[rng.Intn(len(thetas))]
				var entries []relation.Entry
				switch k := rng.Intn(10); {
				case k < 6:
					entries = tab.AppendEntries(nil, doc, theta)
					if got, want := entryTuples(entries), tab.Extract(doc, theta); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d: row entries %v, Extract %v", trial, got, want)
					}
				case k < 8:
					entries = tab.AppendResolved(nil, doc, theta, systems[i].Extract(db.Doc(doc).Text, theta))
				case k < 9:
					text := db.Doc(doc).Text
					entries = tab.AppendTuples(nil, systems[i].Extract(text[:len(text)*rng.Intn(4)/4], theta))
				default:
					phantom := relation.Tuple{A1: g.Companies[rng.Intn(160)], A2: fmt.Sprintf("phantom-%d", rng.Intn(3))}
					entries = tab.AppendTuples(nil, []relation.Tuple{phantom})
				}
				for _, e := range entries {
					if want := golds[i] == nil || golds[i].IsGood(e.Tuple); e.Good != want {
						t.Fatalf("trial %d: %v labelled good=%v, gold says %v", trial, e.Tuple, e.Good, want)
					}
					st.addTuple(i, e)
					ref.add(i, e.Tuple)
				}
			}
			if st.GoodPairs != ref.goodPairs || st.BadPairs != ref.badPairs {
				t.Errorf("trial %d: pairs %d/%d, reference %d/%d", trial, st.GoodPairs, st.BadPairs, ref.goodPairs, ref.badPairs)
			}
			if got := st.Snapshot().JoinSize; got != len(ref.result) {
				t.Errorf("trial %d: join size %d, reference %d", trial, got, len(ref.result))
			}
			if got, want := st.JoinTuples(), ref.joinTuples(); !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: %d join tuples differ from the reference's %d", trial, len(got), len(want))
			}
			for i, x := range st.rels {
				if got, want := st.ValueCounts(i), ref.valueCounts(i); !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d side %d: value counts differ from the reference", trial, i+1)
				}
				if n := len(x.Entries()); n != len(ref.tuples[i]) {
					t.Errorf("trial %d side %d: %d distinct tuples, reference %d", trial, i+1, n, len(ref.tuples[i]))
				}
			}
			var events []string
			for _, ev := range ring.Events() {
				if ev.Kind == obs.KindTupleExtracted {
					events = append(events, fmt.Sprintf("extracted %d %s %v", ev.Side, ev.Attrs["a"], ev.Attrs["good"]))
				} else {
					events = append(events, fmt.Sprintf("joined %s %v", ev.Attrs["a"], ev.Attrs["good"]))
				}
			}
			if !reflect.DeepEqual(events, ref.events) {
				t.Errorf("trial %d: %d trace events differ from the reference's %d", trial, len(events), len(ref.events))
			}
		}
	}
}

func entryTuples(entries []relation.Entry) []relation.Tuple {
	var out []relation.Tuple
	for _, e := range entries {
		out = append(out, e.Tuple)
	}
	return out
}

package qxtract

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// TestLearnMatchesReference: Learn returns exactly what its
// map-per-document reference returns — the same queries, training
// precisions bit for bit and match counts, the same error texts — over
// seeded corpora of 400 to 1,000 documents and 1 to 30 queries.
func TestLearnMatchesReference(t *testing.T) {
	for k, seed := range []int64{1, 2, 3, 4, 5, 6} {
		numDocs := 400 + 120*k
		db := makeDBSized(t, seed, numDocs)
		for _, maxQueries := range []int{1, 2 + 5*k, 12, 30} {
			got, gotErr := Learn(db, "HQ", maxQueries)
			want, wantErr := refLearn(db, "HQ", maxQueries)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %d docs, %d queries: got %v (%v), reference %v (%v)", seed, numDocs, maxQueries, got, gotErr, want, wantErr)
			}
		}
	}
	db := makeDB(t, 5)
	noGood, err := corpus.Load(strings.NewReader(`{"name":"no-good","docs":[{"id":0,"text":"Acme is headquartered in Springfield"},` +
		`{"id":1,"text":"Bolt moved to Shelbyville","mentions":[{"task":"HQ","a1":"Bolt","a2":"Shelbyville","good":false}]}],` +
		`"golds":[{"task":"HQ","schema":{"name":"Headquarters","attr1":"Company","attr2":"Location"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		db         *corpus.DB
		task       string
		maxQueries int
	}{
		{"unhosted task", db, "EX", 5},
		{"zero queries", db, "HQ", 0},
		{"negative queries", db, "HQ", -3},
		{"no good documents", noGood, "HQ", 5},
	} {
		got, gotErr := Learn(c.db, c.task, c.maxQueries)
		want, wantErr := refLearn(c.db, c.task, c.maxQueries)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || got != nil || want != nil {
			t.Errorf("%s: got %v (%v), reference %v (%v)", c.name, got, gotErr, want, wantErr)
		}
	}
}

// Learn as it was before it counted over term rows, kept verbatim
// (renamed) as the reference TestLearnMatchesReference compares against.

// refLearn derives up to maxQueries queries for task from the training
// database. Queries are ordered by expected usefulness (precision ×
// log-coverage on the training split).
func refLearn(train *corpus.DB, task string, maxQueries int) ([]Query, error) {
	stats := train.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("qxtract: training database %s does not host task %s", train.Name, task)
	}
	if maxQueries <= 0 {
		return nil, fmt.Errorf("qxtract: maxQueries must be positive")
	}
	var nGood, nRest int
	countGood := map[string]int{}
	countRest := map[string]int{}
	docTerms := make([]map[string]bool, len(train.Docs))
	for i, doc := range train.Docs {
		set := map[string]bool{}
		for _, tok := range index.Tokenize(doc.Text) {
			set[tok] = true
		}
		docTerms[i] = set
		if stats.Class[i] == corpus.Good {
			nGood++
			for t := range set {
				countGood[t]++
			}
		} else {
			nRest++
			for t := range set {
				countRest[t]++
			}
		}
	}
	if nGood == 0 {
		return nil, fmt.Errorf("qxtract: no good documents in training database")
	}
	type scored struct {
		term  string
		score float64
	}
	var ranked []scored
	for t, gc := range countGood {
		pg := (float64(gc) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		ranked = append(ranked, scored{term: t, score: math.Log(pg / pr)})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].term < ranked[j].term
	})
	nTop := maxQueries
	if nTop > len(ranked) {
		nTop = len(ranked)
	}
	top := ranked[:nTop]

	evaluate := func(terms []string) Query {
		matches, good := 0, 0
		for i, set := range docTerms {
			ok := true
			for _, t := range terms {
				if !set[t] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			matches++
			if stats.Class[i] == corpus.Good {
				good++
			}
		}
		prec := 0.0
		if matches > 0 {
			prec = float64(good) / float64(matches)
		}
		return Query{Terms: terms, TrainPrec: prec, TrainMatches: matches}
	}

	var out []Query
	for _, s := range top {
		out = append(out, evaluate([]string{s.term}))
	}
	// Pairwise conjunctions of the strongest terms sharpen precision.
	for i := 0; i < len(top) && len(out) < maxQueries*2; i++ {
		for j := i + 1; j < len(top) && len(out) < maxQueries*2; j++ {
			q := evaluate([]string{top[i].term, top[j].term})
			if q.TrainMatches > 0 {
				out = append(out, q)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		si := out[i].TrainPrec * math.Log(float64(out[i].TrainMatches)+1)
		sj := out[j].TrainPrec * math.Log(float64(out[j].TrainMatches)+1)
		return si > sj
	})
	if len(out) > maxQueries {
		out = out[:maxQueries]
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("qxtract: no usable queries learned")
	}
	return out, nil
}

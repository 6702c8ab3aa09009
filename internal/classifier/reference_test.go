package classifier

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

// labelledDB loads a database whose documents carry the given HQ
// mentions: "good", "bad" or "" (no mention) per document.
func labelledDB(t *testing.T, classes ...string) *corpus.DB {
	t.Helper()
	var docs []string
	for i, c := range classes {
		mention := ""
		if c != "" {
			mention = fmt.Sprintf(`,"mentions":[{"task":"HQ","a1":"Acme","a2":"Springfield","good":%v}]`, c == "good")
		}
		docs = append(docs, fmt.Sprintf(`{"id":%d,"text":"Acme is headquartered in Springfield, doc %d"%s}`, i, i, mention))
	}
	db, err := corpus.Load(strings.NewReader(`{"name":"labelled","docs":[` + strings.Join(docs, ",") +
		`],"golds":[{"task":"HQ","schema":{"name":"Headquarters","attr1":"Company","attr2":"Location"}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// sameOutcome fails unless got and gotErr equal the reference's result
// (reflect.DeepEqual, unexported fields included) and error text.
func sameOutcome[T any](t *testing.T, name string, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: got %+v, reference %+v", name, got, want)
	}
}

// TestTrainersMatchReference: TrainRules and TrainBayes return exactly
// what their map-per-document references return — the same rules, the
// same Bayes weights bit for bit, the same error texts — over seeded
// corpora of 400 to 1,000 documents and rule shapes spanning 1–20 rules,
// 1–3 terms and precision floors 0.3–0.95, plus every error path.
func TestTrainersMatchReference(t *testing.T) {
	type shape struct {
		rules, terms int
		prec         float64
	}
	// Three shapes per seed; floors of 0.65–0.75 grow multi-term rules.
	shapes := []shape{
		{12, 2, 0.5}, {4, 3, 0.7}, {1, 1, 0.95},
		{20, 3, 0.75}, {12, 1, 0.3}, {8, 2, 0.55},
		{6, 3, 0.65}, {20, 2, 0.9}, {3, 2, 0.4},
		{16, 1, 0.8}, {12, 2, 0.85}, {20, 3, 0.95},
		{20, 2, 0.7}, {10, 3, 0.75}, {2, 1, 0.3},
		{12, 2, 0.5}, {5, 3, 0.6}, {20, 1, 0.85},
	}
	multiTerm := 0
	for k, seed := range []int64{1, 2, 3, 4, 5, 6} {
		numDocs := 400 + 120*k
		db := trainDBSized(t, seed, numDocs)
		for _, s := range shapes[3*k : 3*k+3] {
			name := fmt.Sprintf("seed %d, %d docs, TrainRules %dx%d@%v", seed, numDocs, s.rules, s.terms, s.prec)
			got, gotErr := TrainRules(db, "HQ", s.rules, s.terms, s.prec)
			want, wantErr := refTrainRules(db, "HQ", s.rules, s.terms, s.prec)
			sameOutcome(t, name, got, gotErr, want, wantErr)
			if want != nil {
				for _, r := range want.Set {
					if len(r.Terms) > 1 {
						multiTerm++
					}
				}
			}
		}
		threshold := float64(k) - 2
		got, gotErr := TrainBayes(db, "HQ", threshold)
		want, wantErr := refTrainBayes(db, "HQ", threshold)
		sameOutcome(t, fmt.Sprintf("seed %d, %d docs, TrainBayes(%v)", seed, numDocs, threshold), got, gotErr, want, wantErr)
	}
	if multiTerm == 0 {
		t.Error("no shape grew a multi-term rule; the comparison never left the first term level")
	}

	db := trainDB(t, 9)
	noGood := labelledDB(t, "bad", "", "bad")
	allGood := labelledDB(t, "good", "good")
	empty := labelledDB(t)
	// Six documents sharing five terms, half of them good: the shared terms
	// score highest at precision exactly 0.5, the floor.
	halfGood := labelledDB(t, "good", "bad", "good", "bad", "good", "bad")
	for _, c := range []struct {
		name         string
		db           *corpus.DB
		task         string
		rules, terms int
		prec         float64
	}{
		{"unhosted task", db, "EX", 4, 2, 0.5},
		{"zero rules", db, "HQ", 0, 2, 0.5},
		{"zero terms", db, "HQ", 4, 0, 0.5},
		{"negative shape", db, "HQ", -1, -3, 0.5},
		{"unreachable floor", db, "HQ", 4, 2, 1.01},
		{"no positives", noGood, "HQ", 4, 2, 0.5},
		{"all positives", allGood, "HQ", 4, 2, 0.5},
		{"no documents", empty, "HQ", 4, 2, 0.5},
		{"floor met exactly", halfGood, "HQ", 4, 2, 0.5},
	} {
		got, gotErr := TrainRules(c.db, c.task, c.rules, c.terms, c.prec)
		want, wantErr := refTrainRules(c.db, c.task, c.rules, c.terms, c.prec)
		sameOutcome(t, "TrainRules, "+c.name, got, gotErr, want, wantErr)
		bayes, bayesErr := TrainBayes(c.db, c.task, 0)
		refBayes, refBayesErr := refTrainBayes(c.db, c.task, 0)
		sameOutcome(t, "TrainBayes, "+c.name, bayes, bayesErr, refBayes, refBayesErr)
	}
}

// The trainers as they were before they counted over term rows, kept
// verbatim (renamed) as references: TestTrainersMatchReference requires
// the term-row trainers to return exactly what these return.

// refLabelledDocs extracts (tokenized document, isGood) pairs for training.
func refLabelledDocs(db *corpus.DB, task string) ([]map[string]bool, []bool, error) {
	stats := db.Stats(task)
	if stats == nil {
		return nil, nil, fmt.Errorf("classifier: training database %s does not host task %s", db.Name, task)
	}
	feats := make([]map[string]bool, len(db.Docs))
	labels := make([]bool, len(db.Docs))
	for i, doc := range db.Docs {
		set := map[string]bool{}
		for _, tok := range index.Tokenize(doc.Text) {
			set[tok] = true
		}
		feats[i] = set
		labels[i] = stats.Class[i] == corpus.Good
	}
	return feats, labels, nil
}

// refTrainBayes fits a naive-Bayes classifier for task on db. threshold shifts
// the decision boundary (0 = maximum a posteriori); positive values trade
// Ctp for lower Cfp.
func refTrainBayes(db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	feats, labels, err := refLabelledDocs(db, task)
	if err != nil {
		return nil, err
	}
	var nGood, nRest int
	countGood := map[string]int{}
	countRest := map[string]int{}
	for i, set := range feats {
		if labels[i] {
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
	if nGood == 0 || nRest == 0 {
		return nil, fmt.Errorf("classifier: training needs both good and non-good documents")
	}
	b := &Bayes{
		logPriorGood: math.Log(float64(nGood) / float64(nGood+nRest)),
		logPriorRest: math.Log(float64(nRest) / float64(nGood+nRest)),
		terms:        map[string][2]float64{},
		threshold:    threshold,
	}
	seen := map[string]bool{}
	for t := range countGood {
		seen[t] = true
	}
	for t := range countRest {
		seen[t] = true
	}
	vocab := make([]string, 0, len(seen))
	for t := range seen {
		vocab = append(vocab, t)
	}
	sort.Strings(vocab) // deterministic float accumulation order
	for _, t := range vocab {
		pg := (float64(countGood[t]) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		b.terms[t] = [2]float64{math.Log(pg) - math.Log(1-pg), math.Log(pr) - math.Log(1-pr)}
	}
	// Base score assuming every term absent; per-present-term adjustments
	// are stored relative to absence, so classification is O(|doc|).
	for _, t := range vocab {
		pg := (float64(countGood[t]) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[t]) + 1) / (float64(nRest) + 2)
		b.absentGood += math.Log(1 - pg)
		b.absentRest += math.Log(1 - pr)
	}
	return b, nil
}

// refTrainRules learns up to maxRules rules of at most maxTerms conjuncts for
// task on db. Each rule greedily maximizes covered positives while keeping
// precision at least minPrecision on the remaining training documents.
func refTrainRules(db *corpus.DB, task string, maxRules, maxTerms int, minPrecision float64) (*Rules, error) {
	feats, labels, err := refLabelledDocs(db, task)
	if err != nil {
		return nil, err
	}
	if maxRules <= 0 || maxTerms <= 0 {
		return nil, fmt.Errorf("classifier: invalid rule shape %dx%d", maxRules, maxTerms)
	}
	remaining := map[int]bool{} // uncovered positive docs
	for i, l := range labels {
		if l {
			remaining[i] = true
		}
	}
	if len(remaining) == 0 {
		return nil, fmt.Errorf("classifier: no positive training documents")
	}
	out := &Rules{}
	for len(out.Set) < maxRules && len(remaining) > 0 {
		rule, covered := refGrowRule(feats, labels, remaining, maxTerms, minPrecision)
		if rule == nil {
			break
		}
		out.Set = append(out.Set, *rule)
		for _, i := range covered {
			delete(remaining, i)
		}
	}
	if len(out.Set) == 0 {
		return nil, fmt.Errorf("classifier: rule induction found no rule meeting precision %.2f", minPrecision)
	}
	return out, nil
}

// refGrowRule greedily builds one conjunctive rule maximizing coverage of
// remaining positives subject to the precision floor.
func refGrowRule(feats []map[string]bool, labels []bool, remaining map[int]bool, maxTerms int, minPrecision float64) (*Rule, []int) {
	// Candidate terms: those appearing in remaining positives.
	candSet := map[string]bool{}
	for i := range remaining {
		for t := range feats[i] {
			candSet[t] = true
		}
	}
	cands := make([]string, 0, len(candSet))
	for t := range candSet {
		cands = append(cands, t)
	}
	sort.Strings(cands)

	var rule Rule
	matches := make([]int, 0, len(feats)) // docs matching the rule so far
	for i := range feats {
		matches = append(matches, i)
	}
	for len(rule.Terms) < maxTerms {
		bestTerm, bestScore := "", -1.0
		var bestMatches []int
		for _, t := range cands {
			var m []int
			var pos, rem int
			for _, i := range matches {
				if !feats[i][t] {
					continue
				}
				m = append(m, i)
				if labels[i] {
					pos++
				}
				if remaining[i] {
					rem++
				}
			}
			if len(m) == 0 || rem == 0 {
				continue
			}
			prec := float64(pos) / float64(len(m))
			score := prec * float64(rem)
			if score > bestScore {
				bestTerm, bestScore, bestMatches = t, score, m
			}
		}
		if bestTerm == "" {
			break
		}
		rule.Terms = append(rule.Terms, bestTerm)
		matches = bestMatches
		// Stop early once the precision floor is met.
		pos := 0
		for _, i := range matches {
			if labels[i] {
				pos++
			}
		}
		if float64(pos)/float64(len(matches)) >= minPrecision {
			break
		}
	}
	if len(rule.Terms) == 0 {
		return nil, nil
	}
	pos, covered := 0, []int{}
	for _, i := range matches {
		if labels[i] {
			pos++
		}
		if remaining[i] {
			covered = append(covered, i)
		}
	}
	if float64(pos)/float64(len(matches)) < minPrecision || len(covered) == 0 {
		return nil, nil
	}
	return &rule, covered
}

// Package classifier implements the document classifiers behind the
// Filtered Scan retrieval strategy (§III-B): a rule-induction classifier in
// the spirit of Ripper (the paper's choice) and a naive-Bayes alternative.
// Both are trained on a labelled split and characterized — exactly as the
// paper's models require — by their true-positive rate Ctp (fraction of good
// documents accepted) and false-positive rate Cfp (fraction of non-good
// documents accepted).
package classifier

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
)

// Classifier decides whether a document is a promising candidate for
// containing good tuples of one extraction task.
type Classifier interface {
	// Classify reports whether the document should be processed.
	Classify(text string) bool
}

// Fallible is a classifier whose decisions can fail — a remote model behind
// a flaky service. A failed call makes no decision; the caller retries or
// gives up. cost is extra cost-model time incurred by the call beyond the
// per-document filtering charge.
type Fallible interface {
	Classifier
	ClassifyFallible(text string) (accept bool, cost float64, err error)
}

// Measure computes Ctp and Cfp of a classifier against a database's true
// document classes for a task: Ctp is the acceptance rate on good documents
// and Cfp the acceptance rate on the rest.
func Measure(c Classifier, db *corpus.DB, task string) (ctp, cfp float64, err error) {
	stats := db.Stats(task)
	if stats == nil {
		return 0, 0, fmt.Errorf("classifier: database %s does not host task %s", db.Name, task)
	}
	var accGood, good, accRest, rest int
	for i, doc := range db.Docs {
		accepted := c.Classify(doc.Text)
		if stats.Class[i] == corpus.Good {
			good++
			if accepted {
				accGood++
			}
		} else {
			rest++
			if accepted {
				accRest++
			}
		}
	}
	if good > 0 {
		ctp = float64(accGood) / float64(good)
	}
	if rest > 0 {
		cfp = float64(accRest) / float64(rest)
	}
	return ctp, cfp, nil
}

// labelledDocs extracts (tokenized document, isGood) pairs for training.
func labelledDocs(db *corpus.DB, task string) ([]map[string]bool, []bool, error) {
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

// Bayes is a naive-Bayes document classifier over binary term features.
type Bayes struct {
	logPriorGood float64
	logPriorRest float64
	// logLik[term] = [log P(term|good), log P(term|rest)]; absent terms use
	// the default absence likelihoods.
	terms      map[string][2]float64
	absentGood float64
	absentRest float64
	numTerms   int
	threshold  float64
}

// TrainBayes fits a naive-Bayes classifier for task on db. threshold shifts
// the decision boundary (0 = maximum a posteriori); positive values trade
// Ctp for lower Cfp.
func TrainBayes(db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	feats, labels, err := labelledDocs(db, task)
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
	b.numTerms = len(vocab)
	return b, nil
}

// Classify implements Classifier.
func (b *Bayes) Classify(text string) bool {
	scoreGood := b.logPriorGood + b.absentGood
	scoreRest := b.logPriorRest + b.absentRest
	seen := map[string]bool{}
	for _, tok := range index.Tokenize(text) {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		if adj, ok := b.terms[tok]; ok {
			scoreGood += adj[0]
			scoreRest += adj[1]
		}
	}
	return scoreGood-scoreRest > b.threshold
}

// Rule is a conjunctive term rule: a document fires the rule when it
// contains every term.
type Rule struct {
	Terms []string
}

// Rules is a rule-induction classifier: an ordered rule set accepting any
// document that fires at least one rule, learned by greedy set covering as
// in Ripper.
type Rules struct {
	Set []Rule
}

// TrainRules learns up to maxRules rules of at most maxTerms conjuncts for
// task on db. Each rule greedily maximizes covered positives while keeping
// precision at least minPrecision on the remaining training documents.
func TrainRules(db *corpus.DB, task string, maxRules, maxTerms int, minPrecision float64) (*Rules, error) {
	feats, labels, err := labelledDocs(db, task)
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
		rule, covered := growRule(feats, labels, remaining, maxTerms, minPrecision)
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

// growRule greedily builds one conjunctive rule maximizing coverage of
// remaining positives subject to the precision floor.
func growRule(feats []map[string]bool, labels []bool, remaining map[int]bool, maxTerms int, minPrecision float64) (*Rule, []int) {
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

// rulesScratch is Rules.Classify's working set: the document's tokens and
// its term set. Filtered Scan classifies every document it scans, so the
// scratch is pooled instead of allocated per call.
type rulesScratch struct {
	toks []string
	set  map[string]bool
}

var rulesScratchPool = sync.Pool{New: func() any { return &rulesScratch{set: map[string]bool{}} }}

// Classify implements Classifier. Tokens are not interned: an intern
// table's keys would keep every classified text alive.
func (r *Rules) Classify(text string) bool {
	s := rulesScratchPool.Get().(*rulesScratch)
	defer func() {
		// The tokens are substrings of text; drop them so the pooled
		// scratch does not keep the document alive.
		clear(s.toks)
		clear(s.set)
		rulesScratchPool.Put(s)
	}()
	s.toks = index.TokenizeInto(text, s.toks[:0], nil)
	for _, tok := range s.toks {
		s.set[tok] = true
	}
	for _, rule := range r.Set {
		fires := true
		for _, t := range rule.Terms {
			if !s.set[t] {
				fires = false
				break
			}
		}
		if fires {
			return true
		}
	}
	return false
}

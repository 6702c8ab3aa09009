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
	"slices"
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

// Measure computes Ctp and Cfp of a classifier against a database's true
// document classes for a task: Ctp is the acceptance rate on good documents
// and Cfp the acceptance rate on the rest. It classifies every document;
// Rates counts decisions already made.
func Measure(c Classifier, db *corpus.DB, task string) (ctp, cfp float64, err error) {
	accept := make([]bool, db.Size())
	for i, doc := range db.Docs {
		accept[i] = c.Classify(doc.Text)
	}
	return Rates(accept, db, task)
}

// Rates computes Ctp and Cfp from a classifier's decision on every document
// of db, indexed by document ID (see Decisions).
func Rates(accept []bool, db *corpus.DB, task string) (ctp, cfp float64, err error) {
	stats := db.Stats(task)
	if stats == nil {
		return 0, 0, fmt.Errorf("classifier: database %s does not host task %s", db.Name, task)
	}
	var accGood, good, accRest, rest int
	for i, accepted := range accept {
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

// goodLabels marks each of db's documents good or not for task.
func goodLabels(db *corpus.DB, task string) ([]bool, error) {
	stats := db.Stats(task)
	if stats == nil {
		return nil, fmt.Errorf("classifier: training database %s does not host task %s", db.Name, task)
	}
	out := make([]bool, len(db.Docs))
	for i := range out {
		out[i] = stats.Class[i] == corpus.Good
	}
	return out, nil
}

// Decisions returns c's decision on every document of db, indexed by
// document ID; ix must index db's texts. A rule set reads its decisions off
// the index: a rule fires on a document iff the document is in the posting
// list of every term of the rule, and the index tokenizes with the same
// TokenizeInto as Classify, so the decisions equal Classify's without
// tokenizing a document. Any other classifier classifies each text once.
func Decisions(c Classifier, db *corpus.DB, ix *index.Index) []bool {
	if r, ok := c.(*Rules); ok {
		return r.acceptSet(ix, db.Size())
	}
	out := make([]bool, db.Size())
	for i, d := range db.Docs {
		out[i] = c.Classify(d.Text)
	}
	return out
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
	threshold  float64
}

// TrainBayes fits a naive-Bayes classifier for task on db. threshold shifts
// the decision boundary (0 = maximum a posteriori); positive values trade
// Ctp for lower Cfp.
func TrainBayes(db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	return TrainBayesRows(index.NewTermRows(db.Texts()), db, task, threshold)
}

// TrainBayesRows is TrainBayes over db's term rows, so a caller that
// trains several models on one split tokenizes it once.
func TrainBayesRows(rows *index.TermRows, db *corpus.DB, task string, threshold float64) (*Bayes, error) {
	labels, err := goodLabels(db, task)
	if err != nil {
		return nil, err
	}
	var nGood, nRest int
	countGood := make([]int, len(rows.Terms))
	countRest := make([]int, len(rows.Terms))
	for i, row := range rows.Rows {
		count := countRest
		if labels[i] {
			nGood++
			count = countGood
		} else {
			nRest++
		}
		for _, id := range row {
			count[id]++
		}
	}
	if nGood == 0 || nRest == 0 {
		return nil, fmt.Errorf("classifier: training needs both good and non-good documents")
	}
	b := &Bayes{
		logPriorGood: math.Log(float64(nGood) / float64(nGood+nRest)),
		logPriorRest: math.Log(float64(nRest) / float64(nGood+nRest)),
		terms:        make(map[string][2]float64, len(rows.Terms)),
		threshold:    threshold,
	}
	// Term IDs ascend in string order, which fixes the float accumulation
	// order. The base score assumes every term absent; per-present-term
	// adjustments are stored relative to absence, so classification is
	// O(|doc|).
	for id, t := range rows.Terms {
		pg := (float64(countGood[id]) + 1) / (float64(nGood) + 2)
		pr := (float64(countRest[id]) + 1) / (float64(nRest) + 2)
		b.terms[t] = [2]float64{math.Log(pg) - math.Log(1-pg), math.Log(pr) - math.Log(1-pr)}
		b.absentGood += math.Log(1 - pg)
		b.absentRest += math.Log(1 - pr)
	}
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
	return TrainRulesRows(index.NewTermRows(db.Texts()), db, task, maxRules, maxTerms, minPrecision)
}

// TrainRulesRows is TrainRules over db's term rows, so a caller that
// trains several models on one split tokenizes it once.
func TrainRulesRows(rows *index.TermRows, db *corpus.DB, task string, maxRules, maxTerms int, minPrecision float64) (*Rules, error) {
	labels, err := goodLabels(db, task)
	if err != nil {
		return nil, err
	}
	if maxRules <= 0 || maxTerms <= 0 {
		return nil, fmt.Errorf("classifier: invalid rule shape %dx%d", maxRules, maxTerms)
	}
	remaining := slices.Clone(labels) // uncovered positive docs
	if !slices.Contains(remaining, true) {
		return nil, fmt.Errorf("classifier: no positive training documents")
	}
	out := &Rules{}
	for len(out.Set) < maxRules && slices.Contains(remaining, true) {
		rule, covered := growRule(rows, labels, remaining, maxTerms, minPrecision)
		if rule == nil {
			break
		}
		out.Set = append(out.Set, *rule)
		for _, i := range covered {
			remaining[i] = false
		}
	}
	if len(out.Set) == 0 {
		return nil, fmt.Errorf("classifier: rule induction found no rule meeting precision %.2f", minPrecision)
	}
	return out, nil
}

// growRule greedily builds one conjunctive rule maximizing coverage of
// remaining positives subject to the precision floor. Each term level
// counts, in one pass over the rows of the documents the rule still
// matches, how many contain each term (n), how many of those are good
// (pos) and how many are uncovered positives (rem). The candidates are the
// terms of the uncovered positives, so exactly the terms with rem > 0; they
// are scored in ascending ID order, which is term order, and the strict
// comparison hands a tie to the smaller term. A term already in the rule
// matches every current document and stays a candidate.
func growRule(rows *index.TermRows, labels, remaining []bool, maxTerms int, minPrecision float64) (*Rule, []int) {
	type termCount struct{ n, pos, rem int }
	counts := make([]termCount, len(rows.Terms))
	var rule Rule
	matches := make([]int, len(rows.Rows)) // docs matching the rule so far, ascending
	for i := range matches {
		matches[i] = i
	}
	for len(rule.Terms) < maxTerms {
		clear(counts)
		for _, i := range matches {
			for _, id := range rows.Rows[i] {
				c := &counts[id]
				c.n++
				if labels[i] {
					c.pos++
				}
				if remaining[i] {
					c.rem++
				}
			}
		}
		best, bestScore := -1, -1.0
		for id, c := range counts {
			if c.rem == 0 {
				continue
			}
			prec := float64(c.pos) / float64(c.n)
			score := prec * float64(c.rem)
			if score > bestScore {
				best, bestScore = id, score
			}
		}
		if best < 0 {
			break
		}
		rule.Terms = append(rule.Terms, rows.Terms[best])
		matches = slices.DeleteFunc(matches, func(i int) bool {
			_, found := slices.BinarySearch(rows.Rows[i], int32(best))
			return !found
		})
		// Stop early once the precision floor is met.
		if float64(counts[best].pos)/float64(len(matches)) >= minPrecision {
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

// acceptSet returns the documents r accepts among the n documents ix
// indexes, by document ID: the union over rules of the documents matching
// every term. Classify compares a rule's terms with the text's tokens as
// they are, while the index lower-cases query terms, so a rule with a term
// that is not a token (one Tokenize does not return unchanged) fires on no
// document and is skipped; a rule with no terms fires on every document.
func (r *Rules) acceptSet(ix *index.Index, n int) []bool {
	out := make([]bool, n)
rules:
	for _, rule := range r.Set {
		for _, t := range rule.Terms {
			if toks := index.Tokenize(t); len(toks) != 1 || toks[0] != t {
				continue rules
			}
		}
		if len(rule.Terms) == 0 {
			for i := range out {
				out[i] = true
			}
			break
		}
		for _, id := range ix.Matches(index.Query{Terms: rule.Terms}) {
			out[id] = true
		}
	}
	return out
}

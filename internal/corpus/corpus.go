// Package corpus implements the text-database substrate: documents carrying
// gold mention annotations, per-task good/bad/empty document partitions, and
// a synthetic corpus generator with power-law attribute-value frequencies.
//
// The paper evaluates on newspaper archives (NYT95/NYT96/WSJ). This package
// substitutes synthetic databases whose *distributional* properties — the
// only corpus properties the paper's models consume — are controlled
// exactly: |Dg|, |Db|, |De| per extraction task, power-law value-frequency
// distributions, value overlap across databases, and deceptive contexts that
// make extraction imprecise.
package corpus

import (
	"fmt"
	"sort"

	"joinopt/internal/relation"
	"joinopt/internal/textgen"
)

// DocClass partitions documents with respect to one extraction task
// (§III-B): a document is good if the task's IE system can extract at least
// one good tuple from it, bad if it can extract only bad tuples, and empty
// if it can extract no tuples at all.
type DocClass int

// Document classes.
const (
	Empty DocClass = iota
	Good
	Bad
)

// String names the document class.
func (c DocClass) String() string {
	switch c {
	case Good:
		return "good"
	case Bad:
		return "bad"
	default:
		return "empty"
	}
}

// Mention is a gold annotation: the document expresses Tuple for Task, and
// the expression is either correct (Good) or deceptive. Mentions exist for
// evaluation and model-parameter measurement only; the extraction engine
// works from Text.
type Mention struct {
	Task  string
	Tuple relation.Tuple
	Good  bool
}

// Document is one text database entry.
type Document struct {
	ID       int
	Text     string
	Mentions []Mention
}

// DB is a text database: an ordered document collection with per-task gold
// sets and per-task statistics.
type DB struct {
	Name string
	Docs []*Document

	golds map[string]*relation.Gold
	stats map[string]*TaskStats
}

// Size returns the number of documents, |D|.
func (db *DB) Size() int { return len(db.Docs) }

// Doc returns the document with the given ID (IDs are dense, 0-based).
func (db *DB) Doc(id int) *Document { return db.Docs[id] }

// Texts returns the document texts in ID order.
func (db *DB) Texts() []string {
	out := make([]string, len(db.Docs))
	for i, d := range db.Docs {
		out[i] = d.Text
	}
	return out
}

// Gold returns the gold set for a task hosted by this database, or nil when
// the task is unknown.
func (db *DB) Gold(task string) *relation.Gold { return db.golds[task] }

// Stats returns the true task statistics (computed at generation time), or
// nil when the task is unknown. The analytical-model experiments feed these
// to the models as the "perfect knowledge" parameters (§VII); the optimizer
// instead estimates them on the fly.
func (db *DB) Stats(task string) *TaskStats { return db.stats[task] }

// Tasks lists the extraction tasks hosted by this database in sorted order.
func (db *DB) Tasks() []string {
	out := make([]string, 0, len(db.golds))
	for t := range db.golds {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TaskStats are the database-specific parameters of one extraction task
// (Table I of the paper), measured exactly by the generator.
type TaskStats struct {
	Task string

	NumGood  int // |Dg|
	NumBad   int // |Db|
	NumEmpty int // |De|

	Class []DocClass // per-document class, indexed by document ID

	GoodFreq map[string]int // g(a): good occurrences of join value a
	BadFreq  map[string]int // b(a): bad occurrences of join value a
}

// NumDocs returns |D| = |Dg| + |Db| + |De|.
func (s *TaskStats) NumDocs() int { return s.NumGood + s.NumBad + s.NumEmpty }

// GoodValues returns |Ag|: the number of distinct join values with good
// occurrences.
func (s *TaskStats) GoodValues() int { return len(s.GoodFreq) }

// BadValues returns |Ab|: the number of distinct join values with bad
// occurrences.
func (s *TaskStats) BadValues() int { return len(s.BadFreq) }

// MaxGoodFreq returns the largest g(a), bounding the frequency support.
func (s *TaskStats) MaxGoodFreq() int {
	m := 0
	for _, f := range s.GoodFreq {
		if f > m {
			m = f
		}
	}
	return m
}

// MaxBadFreq returns the largest b(a).
func (s *TaskStats) MaxBadFreq() int {
	m := 0
	for _, f := range s.BadFreq {
		if f > m {
			m = f
		}
	}
	return m
}

// FreqHistogram returns counts[k-1] = number of values with frequency k, for
// the good or bad value population.
func (s *TaskStats) FreqHistogram(good bool) []int {
	src := s.GoodFreq
	max := s.MaxGoodFreq()
	if !good {
		src = s.BadFreq
		max = s.MaxBadFreq()
	}
	if max == 0 {
		return nil
	}
	out := make([]int, max)
	for _, f := range src {
		out[f-1]++
	}
	return out
}

// computeStats derives TaskStats by scanning the documents' mention
// annotations for one task.
func computeStats(task string, docs []*Document) *TaskStats {
	s := &TaskStats{
		Task:     task,
		Class:    make([]DocClass, len(docs)),
		GoodFreq: map[string]int{},
		BadFreq:  map[string]int{},
	}
	for i, d := range docs {
		hasGood, hasBad := false, false
		for _, m := range d.Mentions {
			if m.Task != task {
				continue
			}
			if m.Good {
				hasGood = true
				s.GoodFreq[m.Tuple.A1]++
			} else {
				hasBad = true
				s.BadFreq[m.Tuple.A1]++
			}
		}
		switch {
		case hasGood:
			s.Class[i] = Good
			s.NumGood++
		case hasBad:
			s.Class[i] = Bad
			s.NumBad++
		default:
			s.Class[i] = Empty
			s.NumEmpty++
		}
	}
	return s
}

// VocabForTask resolves the standard task vocabulary, wrapping the textgen
// lookup with an error.
func VocabForTask(task string) (textgen.TaskVocab, error) {
	v, ok := textgen.VocabByTask(task)
	if !ok {
		return textgen.TaskVocab{}, fmt.Errorf("corpus: unknown task %q", task)
	}
	return v, nil
}

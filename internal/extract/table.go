package extract

import (
	"slices"
	"sync/atomic"

	"joinopt/internal/corpus"
	"joinopt/internal/relation"
)

// Table memoizes a System's extraction over one database, indexed by
// document ID. Row id holds document id's distinct candidate tuples,
// sorted, each with its best score, so an extraction at any knob setting is
// a filter over the row. Plan sweeps re-process the same documents under
// many knob settings; the table scans each document once, and a hit costs
// an atomic load with no hashing and no lock. Rows fill on first use and
// are safe for concurrent executions: two goroutines that race to fill a
// row compute the same value.
type Table struct {
	sys  *System
	db   *corpus.DB
	rows []atomic.Pointer[[]Candidate]
}

// NewTable returns an empty extraction table of the system over db.
func (s *System) NewTable(db *corpus.DB) *Table {
	return &Table{sys: s, db: db, rows: make([]atomic.Pointer[[]Candidate], db.Size())}
}

// System returns the IE system whose extraction the table memoizes.
func (t *Table) System() *System { return t.sys }

// Extract returns the tuples the system emits from document id at knob
// configuration theta: exactly System.Extract over the document's text.
// Only the database's own record may be read through the table; a copy
// with other text (a fault-truncated fetch) goes through System.Extract.
func (t *Table) Extract(id int, theta float64) []relation.Tuple {
	t.sys.extracts.Add(1)
	row := t.rows[id].Load()
	if row == nil {
		row = &noCandidates
		if cands := distinct(t.sys.Scan(t.db.Doc(id).Text)); len(cands) > 0 {
			filled := slices.Clip(cands)
			row = &filled
		}
		t.rows[id].Store(row)
	}
	return atLeast(*row, theta)
}

// noCandidates is the row of every document without candidates, which
// most documents are; sharing it saves a row allocation per document.
var noCandidates []Candidate

// ResetCache empties every row, so the next extraction of each document
// scans it again. Benchmarks reset between iterations so each measures the
// full extraction pipeline rather than a table read.
func (t *Table) ResetCache() {
	for i := range t.rows {
		t.rows[i].Store(nil)
	}
}

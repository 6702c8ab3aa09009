package extract

import (
	"sync/atomic"

	"joinopt/internal/corpus"
	"joinopt/internal/relation"
)

// Table memoizes a System's extraction over one database, indexed by
// document ID. Row id holds document id's distinct candidate tuples,
// sorted, each with its best score and its entry in the table's dictionary:
// the tuple's ID in the database, its join value's ID in the workload's
// shared value dictionary, and its label against the database's gold set.
// An extraction at any knob setting is a filter over the row. Plan sweeps
// re-process the same documents under many knob settings; the table scans
// each document once, and a hit costs an atomic load with no hashing and no
// lock. Rows fill on first use and are safe for concurrent executions: two
// goroutines that race to fill a row compute the same tuples, and the
// dictionary gives each tuple one entry. Which tuple or value gets which ID
// follows fill order, so the executors use IDs only as counter indexes.
type Table struct {
	sys  *System
	db   *corpus.DB
	dict *relation.Dict
	rows []atomic.Pointer[[]cell]
}

// cell is one distinct tuple of a row.
type cell struct {
	relation.Entry
	score float64
}

// NewTable returns an empty extraction table of the system over db, whose
// tuples are labelled against db.Gold(s.Task) and whose join values are
// numbered in values, shared by every table of a workload.
func (s *System) NewTable(db *corpus.DB, values *relation.Values) *Table {
	return &Table{
		sys:  s,
		db:   db,
		dict: relation.NewDict(db.Gold(s.Task), values),
		rows: make([]atomic.Pointer[[]cell], db.Size()),
	}
}

// System returns the IE system whose extraction the table memoizes.
func (t *Table) System() *System { return t.sys }

// Dict returns the dictionary that numbers and labels the table's tuples.
func (t *Table) Dict() *relation.Dict { return t.dict }

// row returns document id's row, scanning the document on first use.
func (t *Table) row(id int) []cell {
	row := t.rows[id].Load()
	if row == nil {
		row = &noCells
		if cands := distinct(t.sys.Scan(t.db.Doc(id).Text)); len(cands) > 0 {
			cells := make([]cell, len(cands))
			for k, c := range cands {
				cells[k] = cell{Entry: t.dict.Entry(c.Tuple), score: c.Score}
			}
			row = &cells
		}
		t.rows[id].Store(row)
	}
	return *row
}

// noCells is the row of every document without candidates, which most
// documents are; sharing it saves a row allocation per document.
var noCells []cell

// Extract returns the tuples the system emits from document id at knob
// configuration theta: exactly System.Extract over the document's text.
// Only the database's own record may be read through the table; a copy
// with other text (a fault-truncated fetch) goes through System.Extract.
func (t *Table) Extract(id int, theta float64) []relation.Tuple {
	t.sys.extracts.Add(1)
	row := t.row(id)
	var out []relation.Tuple
	for _, c := range row {
		if c.score >= theta {
			if out == nil {
				out = make([]relation.Tuple, 0, len(row))
			}
			out = append(out, c.Tuple)
		}
	}
	return out
}

// AppendEntries is Extract for the executors: it appends the entries of
// the tuples Extract returns, in the same order, to buf. With a reused
// buffer it allocates nothing once the row is filled.
func (t *Table) AppendEntries(buf []relation.Entry, id int, theta float64) []relation.Entry {
	t.sys.extracts.Add(1)
	return appendAt(buf, t.row(id), theta)
}

// AppendResolved appends the entries of tuples, document id's extraction
// at theta as a pipeline resolved it (from a worker, the cache or its
// tier). It reads them from the row when the row is filled and numbers the
// tuples through the dictionary otherwise, so a cache or tier hit never
// scans the document.
func (t *Table) AppendResolved(buf []relation.Entry, id int, theta float64, tuples []relation.Tuple) []relation.Entry {
	if row := t.rows[id].Load(); row != nil {
		return appendAt(buf, *row, theta)
	}
	return t.AppendTuples(buf, tuples)
}

// AppendTuples appends the entries of tuples no row holds, such as a
// fault-truncated copy's extraction, numbered and labelled through the
// table's dictionary.
func (t *Table) AppendTuples(buf []relation.Entry, tuples []relation.Tuple) []relation.Entry {
	for _, tup := range tuples {
		buf = append(buf, t.dict.Entry(tup))
	}
	return buf
}

// appendAt appends the entries of the row's cells that score at least theta.
func appendAt(buf []relation.Entry, row []cell, theta float64) []relation.Entry {
	for _, c := range row {
		if c.score >= theta {
			buf = append(buf, c.Entry)
		}
	}
	return buf
}

// ResetCache empties every row, so the next extraction of each document
// scans it again. Benchmarks reset between iterations so each measures the
// full extraction pipeline rather than a table read. The dictionary keeps
// its entries, so IDs stay stable across resets.
func (t *Table) ResetCache() {
	for i := range t.rows {
		t.rows[i].Store(nil)
	}
}

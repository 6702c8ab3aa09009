// Package retrieval implements the document retrieval strategies of §III-B
// as streaming document sources: Scan (SC), Filtered Scan (FS), and
// Automatic Query Generation (AQG). Join executors pull document IDs from a
// Strategy one at a time and account for the retrieval work it performs.
package retrieval

import (
	"fmt"

	"joinopt/internal/corpus"
	"joinopt/internal/index"
	"joinopt/internal/qxtract"
)

// Kind identifies a retrieval strategy.
type Kind string

// The retrieval strategies of the paper.
const (
	SC  Kind = "SC"  // Scan
	FS  Kind = "FS"  // Filtered Scan
	AQG Kind = "AQG" // Automatic Query Generation
)

// Counts is the work performed by a strategy so far: documents retrieved
// from the database, documents rejected by the Filtered Scan classifier, and
// queries issued by AQG. The cost model charges tR per retrieval, tF per
// filtered document, and tQ per query.
type Counts struct {
	Retrieved int
	Filtered  int
	Queries   int
}

// Strategy streams the IDs of documents to process, in retrieval order.
type Strategy interface {
	// Next returns the next document to process; ok is false once the
	// strategy is exhausted (whole database scanned, or all queries spent).
	Next() (docID int, ok bool)
	// Kind identifies the strategy.
	Kind() Kind
	// Counts reports the work performed so far.
	Counts() Counts
}

// Fallible is a strategy whose pulls can fail — a flaky search interface or
// classifier service. A failed pull does not advance the stream: once the
// failure clears, the next pull resumes exactly where the stream left off.
// cost is extra cost-model time incurred by the pull (injected latency,
// failed-call overhead) beyond the per-document charges the executors
// already apply; it is reported on failures and successes alike.
type Fallible interface {
	Strategy
	NextFallible() (docID int, ok bool, cost float64, err error)
}

// Pull advances s one document through its fallible path when it has one,
// and through plain Next otherwise. Executors pull through this helper so
// any strategy — wrapped by a fault injector or not — is driven uniformly.
func Pull(s Strategy) (docID int, ok bool, cost float64, err error) {
	if f, isFallible := s.(Fallible); isFallible {
		return f.NextFallible()
	}
	id, ok := s.Next()
	return id, ok, 0, nil
}

// Peeker is a strategy that can reveal the documents it expects to hand out
// next without advancing the stream. Peeking performs no accountable work:
// counts, fault streams, and stream position are untouched, so executions
// with and without peeking stay bit-identical. The peek is a best-effort
// prediction used by the pipelined executor to start extraction early —
// inaccuracy wastes speculative work but never affects results.
type Peeker interface {
	Peek(k int) []int
}

// PeekAhead returns up to k upcoming document IDs from s when it supports
// peeking, and nil otherwise. The returned slice is owned by the strategy
// and valid only until its next method call.
func PeekAhead(s Strategy, k int) []int {
	if p, ok := s.(Peeker); ok && k > 0 {
		return p.Peek(k)
	}
	return nil
}

// Scan retrieves every document sequentially.
type Scan struct {
	n       int
	next    int
	counts  Counts
	peekBuf []int
}

// NewScan returns a Scan over a database of numDocs documents.
func NewScan(numDocs int) *Scan { return &Scan{n: numDocs} }

// Next implements Strategy.
func (s *Scan) Next() (int, bool) {
	if s.next >= s.n {
		return 0, false
	}
	id := s.next
	s.next++
	s.counts.Retrieved++
	return id, true
}

// Peek implements Peeker: the scan order is fixed, so the next k documents
// are simply the next k IDs.
func (s *Scan) Peek(k int) []int {
	s.peekBuf = s.peekBuf[:0]
	for id := s.next; id < s.n && id < s.next+k; id++ {
		s.peekBuf = append(s.peekBuf, id)
	}
	return s.peekBuf
}

// Kind implements Strategy.
func (s *Scan) Kind() Kind { return SC }

// Counts implements Strategy.
func (s *Scan) Counts() Counts { return s.counts }

// ClassifierFaults fails a Filtered Scan's classifier calls — a flaky
// model service (faults.FaultyClassifier). On its fallible path the scan
// makes one call per document it classifies, before reading the decision:
// a failed call makes no decision, and cost is extra cost-model time
// beyond the per-document filtering charge.
type ClassifierFaults interface {
	Call() (cost float64, err error)
}

// FilteredScan scans sequentially but hands out only documents the
// classifier accepts. Rejected documents are still retrieved (and charged)
// but not processed. The decisions come from a table computed once per
// (classifier, database) by classifier.Decisions, so a pull reads a table
// entry instead of classifying the document's text.
type FilteredScan struct {
	accept []bool
	faults ClassifierFaults
	next   int
	counts Counts

	// Peek memo: documents in [next, peekPos) have been looked at ahead,
	// with the accepted IDs buffered in peekBuf. Peeking never touches
	// next, counts or the fault stream.
	peekPos int
	peekBuf []int
}

// NewFilteredScan returns a Filtered Scan over db that hands out the
// documents accept marks: accept[id] is the classifier's decision on
// document id. faults, when non-nil, fails classifier calls on the
// fallible path.
func NewFilteredScan(db *corpus.DB, accept []bool, faults ClassifierFaults) (*FilteredScan, error) {
	if len(accept) != db.Size() {
		return nil, fmt.Errorf("retrieval: filtered scan needs a classifier decision for each of %d documents, got %d", db.Size(), len(accept))
	}
	return &FilteredScan{accept: accept, faults: faults}, nil
}

// Next implements Strategy.
func (f *FilteredScan) Next() (int, bool) {
	for f.next < len(f.accept) {
		id := f.next
		f.next++
		f.counts.Retrieved++
		if f.accept[id] {
			return id, true
		}
		f.counts.Filtered++
	}
	return 0, false
}

// NextFallible implements Fallible. A classifier failure is surfaced before
// the scan position advances or any work is counted, so a retried pull
// classifies the same document again.
func (f *FilteredScan) NextFallible() (int, bool, float64, error) {
	var cost float64
	for f.next < len(f.accept) {
		id := f.next
		if f.faults != nil {
			c, err := f.faults.Call()
			cost += c
			if err != nil {
				return 0, false, cost, err
			}
		}
		f.next++
		f.counts.Retrieved++
		if f.accept[id] {
			return id, true, cost, nil
		}
		f.counts.Filtered++
	}
	return 0, false, cost, nil
}

// Peek implements Peeker: it reads the decisions ahead of the scan
// position (fault-free) and returns up to k upcoming accepted documents.
// Results already consumed by Next are dropped from the memo; positions
// looked at ahead are never looked at again.
func (f *FilteredScan) Peek(k int) []int {
	drop := 0
	for drop < len(f.peekBuf) && f.peekBuf[drop] < f.next {
		drop++
	}
	if drop > 0 {
		f.peekBuf = append(f.peekBuf[:0], f.peekBuf[drop:]...)
	}
	if f.peekPos < f.next {
		f.peekPos = f.next
	}
	for len(f.peekBuf) < k && f.peekPos < len(f.accept) {
		id := f.peekPos
		f.peekPos++
		if f.accept[id] {
			f.peekBuf = append(f.peekBuf, id)
		}
	}
	if len(f.peekBuf) > k {
		return f.peekBuf[:k]
	}
	return f.peekBuf
}

// Kind implements Strategy.
func (f *FilteredScan) Kind() Kind { return FS }

// Counts implements Strategy.
func (f *FilteredScan) Counts() Counts { return f.counts }

// AQGStrategy issues learned keyword queries against the database's search
// interface and streams the unseen matching documents. Its reach is bounded
// by the query set and the interface's top-k cap.
type AQGStrategy struct {
	ix      *index.Index
	queries []qxtract.Query
	qNext   int
	buffer  []int
	seen    map[int]bool
	counts  Counts
}

// NewAQG returns an AQG strategy issuing queries against ix in order.
func NewAQG(ix *index.Index, queries []qxtract.Query) (*AQGStrategy, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("retrieval: AQG needs at least one query")
	}
	return &AQGStrategy{ix: ix, queries: queries, seen: map[int]bool{}}, nil
}

// Next implements Strategy.
func (a *AQGStrategy) Next() (int, bool) {
	for {
		if len(a.buffer) > 0 {
			id := a.buffer[0]
			a.buffer = a.buffer[1:]
			a.counts.Retrieved++
			return id, true
		}
		if a.qNext >= len(a.queries) {
			return 0, false
		}
		q := a.queries[a.qNext]
		a.qNext++
		a.counts.Queries++
		for _, id := range a.ix.Search(q.IndexQuery()) {
			if !a.seen[id] {
				a.seen[id] = true
				a.buffer = append(a.buffer, id)
			}
		}
	}
}

// Peek implements Peeker: it reveals the buffered results of already-issued
// queries. No new queries are issued (that would be accountable work), so
// the peek may return fewer than k documents.
func (a *AQGStrategy) Peek(k int) []int {
	if len(a.buffer) > k {
		return a.buffer[:k]
	}
	return a.buffer
}

// Kind implements Strategy.
func (a *AQGStrategy) Kind() Kind { return AQG }

// Counts implements Strategy.
func (a *AQGStrategy) Counts() Counts { return a.counts }

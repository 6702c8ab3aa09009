// Package index implements the keyword search interface of a text database:
// a tokenizer, an inverted index over documents, and conjunctive keyword
// queries with a configurable top-k result cap.
//
// The top-k cap models the search-interface limit the paper identifies as
// the factor bounding the reach of query-based join algorithms (OIJN and
// ZGJN, §IV-B/C): documents matching a query beyond the cap are simply not
// returned and must be reached by other queries.
package index

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases text and splits it into letter/digit runs. It is the
// single tokenization used by the index, the extraction engine, the
// classifiers, and the query generator, so all components agree on terms.
func Tokenize(text string) []string {
	return TokenizeInto(text, nil, nil)
}

// Interner caches the lowered form of raw token spans so repeated
// tokenization of a vocabulary allocates each lowered string once. Keys are
// substrings of the tokenized texts, so an interner pins those texts in
// memory — appropriate for corpus documents that live in the database
// anyway. Interners are not safe for concurrent use; give each worker its
// own (see extract's scan scratch).
type Interner map[string]string

// lower returns the lowered form of a raw token span, consulting and
// updating the intern table when one is attached.
func (in Interner) lower(raw string) string {
	if in == nil {
		return strings.ToLower(raw)
	}
	if s, ok := in[raw]; ok {
		return s
	}
	s := strings.ToLower(raw)
	in[raw] = s
	return s
}

// TokenizeInto is Tokenize with a caller-owned token buffer and an optional
// intern table: tokens are appended to buf's backing array (grown as
// needed), and spans that are already lower-case — the common case for body
// text — are substrings of text, not copies. With a warm buffer and
// interner the call does not allocate; the extraction hot path depends on
// this (the extract alloc guard covers it).
func TokenizeInto(text string, buf []string, in Interner) []string {
	out := buf
	start := -1 // byte offset of the current letter/digit run, -1 outside one
	lower := true
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start, lower = i, true
			}
			// Conservative: any non-ASCII rune goes through ToLower.
			if r >= 'A' && r <= 'Z' || r >= utf8.RuneSelf {
				lower = false
			}
			continue
		}
		if start >= 0 {
			out = appendToken(out, text[start:i], lower, in)
			start = -1
		}
	}
	if start >= 0 {
		out = appendToken(out, text[start:], lower, in)
	}
	return out
}

// appendToken appends a token span, lowering it only when needed.
func appendToken(out []string, raw string, lower bool, in Interner) []string {
	if lower {
		return append(out, raw)
	}
	return append(out, in.lower(raw))
}

// TermRows is a document collection tokenized once for counting: Terms
// numbers the vocabulary in ascending string order, and Rows[d] holds the
// IDs of document d's distinct terms in ascending order. Training code
// (rule induction, naive Bayes, query generation) counts over these integer
// rows instead of probing a string set per document.
type TermRows struct {
	Terms []string
	Rows  [][]int32
}

// NewTermRows tokenizes each text with TokenizeInto and interns its terms.
func NewTermRows(texts []string) *TermRows {
	ids := map[string]int32{} // term → ID in first-seen order
	var lastDoc []int         // ID → last document listing the term
	rows := make([][]int32, len(texts))
	in := Interner{}
	var toks []string
	var row []int32
	for d, text := range texts {
		toks, row = TokenizeInto(text, toks[:0], in), row[:0]
		for _, tok := range toks {
			id, ok := ids[tok]
			if !ok {
				id = int32(len(ids))
				ids[tok] = id
				lastDoc = append(lastDoc, -1)
			}
			if lastDoc[id] != d {
				lastDoc[id] = d
				row = append(row, id)
			}
		}
		rows[d] = slices.Clone(row)
	}
	terms := make([]string, 0, len(ids))
	for t := range ids {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	renum := make([]int32, len(terms))
	for id, t := range terms {
		renum[ids[t]] = int32(id)
	}
	for _, row := range rows {
		for k, id := range row {
			row[k] = renum[id]
		}
		slices.Sort(row)
	}
	return &TermRows{Terms: terms, Rows: rows}
}

// Query is a conjunctive keyword query: a document matches iff it contains
// every term.
type Query struct {
	Terms []string
}

// QueryFromValue builds the query an execution plan issues for an attribute
// value: the conjunction of the value's tokens (e.g. "Acme Dynamics" →
// [acme, dynamics]).
func QueryFromValue(value string) Query {
	return Query{Terms: Tokenize(value)}
}

// String renders the query as [t1 t2 ...].
func (q Query) String() string { return "[" + strings.Join(q.Terms, " ") + "]" }

// Index is an inverted index over a document collection with a top-k search
// cap. It memoizes the results of join-value queries (SearchValue), so only
// the first query for a value on an index searches; it is safe for
// concurrent use.
type Index struct {
	postings map[string][]int // term -> sorted doc IDs
	topK     int
	values   sync.Map // join value -> Search(QueryFromValue(value))
}

// New builds an index over docs (ID i = docs[i]) returning at most topK
// results per query. topK <= 0 means unlimited. The postings come from the
// texts' term rows: walking the duplicate-free rows in document order keeps
// every posting list sorted and duplicate-free.
func New(texts []string, topK int) *Index {
	tr := NewTermRows(texts)
	lists := make([][]int, len(tr.Terms))
	for d, row := range tr.Rows {
		for _, id := range row {
			lists[id] = append(lists[id], d)
		}
	}
	postings := make(map[string][]int, len(lists))
	for id, docs := range lists {
		postings[tr.Terms[id]] = docs
	}
	return &Index{postings: postings, topK: topK}
}

// TopK returns the configured result cap (0 = unlimited).
func (ix *Index) TopK() int { return ix.topK }

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	return len(ix.postings[strings.ToLower(term)])
}

// Matches returns every document matching q, ignoring the top-k cap. Model
// parameter measurement uses it to compute H(q); executions must use Search.
func (ix *Index) Matches(q Query) []int {
	return ix.intersectInto(q, nil)
}

// Search returns the documents matching q, capped at top-k. Ranking is by a
// deterministic query-dependent score (a hash of the query terms and the
// document ID), modelling a relevance-ranked search interface: distinct
// queries surface distinct subsets of their matches, so overlapping queries
// are conditionally independent samples of the match set — the assumption
// behind the paper's query-retrieval analysis (Equation 2). Results are
// returned in document-ID order.
func (ix *Index) Search(q Query) []int {
	return ix.SearchInto(q, nil)
}

// SearchInto is Search with a caller-owned result buffer: the result is
// written into buf's backing array (grown as needed) and returned, valid
// until the next call reusing the buffer. The OIJN and ZGJN inner loops
// issue a query per join value, so buffer reuse removes the per-call
// allocations from their hot path (the index benchmark guards the
// allocation count).
func (ix *Index) SearchInto(q Query, buf []int) []int {
	res := ix.intersectInto(q, buf)
	if ix.topK > 0 && len(res) > ix.topK {
		seed := fnv.New64a()
		for _, t := range q.Terms {
			seed.Write([]byte(t))
			seed.Write([]byte{0})
		}
		base := seed.Sum64()
		selectTopK(res, ix.topK, base)
		res = res[:ix.topK]
		slices.Sort(res)
	}
	return res
}

// SearchValue returns Search(QueryFromValue(value)), memoized per value:
// only the first query for a value tokenizes it and intersects posting
// lists, and later ones return the same slice, which callers must not
// modify. The OIJN and ZGJN executors issue their value queries here.
func (ix *Index) SearchValue(value string) []int {
	if docs, ok := ix.values.Load(value); ok {
		return docs.([]int)
	}
	// A copy: Search's result can sit in a posting-list-sized array.
	docs, _ := ix.values.LoadOrStore(value, slices.Clone(ix.Search(QueryFromValue(value))))
	return docs.([]int)
}

// ResetMemo forgets every memoized value query. Benchmarks reset it with the
// extraction tables, so each iteration measures a cold execution.
func (ix *Index) ResetMemo() {
	ix.values.Range(func(v, _ any) bool {
		ix.values.Delete(v)
		return true
	})
}

// selectTopK rearranges res so its first k elements are the k lowest-scored
// documents, using an in-place max-heap over the prefix — no comparator
// closures, so no allocation. The selected set is exact; order within the
// prefix is unspecified (callers re-sort by ID).
func selectTopK(res []int, k int, base uint64) {
	down := func(h []int, i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			big := l
			if r := l + 1; r < len(h) && docScore(base, h[r]) > docScore(base, h[l]) {
				big = r
			}
			if docScore(base, h[big]) <= docScore(base, h[i]) {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	h := res[:k]
	for i := k/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	top := docScore(base, h[0])
	for _, id := range res[k:] {
		if s := docScore(base, id); s < top {
			h[0] = id
			down(h, 0)
			top = docScore(base, h[0])
		}
	}
}

// docScore hashes a (query, document) pair into a deterministic rank.
func docScore(base uint64, docID int) uint64 {
	x := base ^ (uint64(docID)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// intersectInto writes the conjunctive match set into buf's backing array
// (grown as needed). The rarest posting list seeds the result, which is then
// narrowed in place against the remaining lists — never aliasing a posting
// list and never allocating beyond buf growth.
func (ix *Index) intersectInto(q Query, buf []int) []int {
	if len(q.Terms) == 0 {
		return nil
	}
	rare := -1
	for ti, t := range q.Terms {
		l := ix.postings[strings.ToLower(t)]
		if len(l) == 0 {
			return nil
		}
		if rare < 0 || len(l) < len(ix.postings[strings.ToLower(q.Terms[rare])]) {
			rare = ti
		}
	}
	out := append(buf[:0], ix.postings[strings.ToLower(q.Terms[rare])]...)
	for ti, t := range q.Terms {
		if ti == rare {
			continue
		}
		out = intersectSortedInPlace(out, ix.postings[strings.ToLower(t)])
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// intersectSortedInPlace narrows sorted a to a ∩ b, writing into a's prefix.
func intersectSortedInPlace(a, b []int) []int {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			a[k] = a[i]
			k++
			i++
			j++
		}
	}
	return a[:k]
}

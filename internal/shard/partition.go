// Package shard partitions each text database into N deterministic shards
// and runs one pipelined extraction engine per shard. An unsharded run is a
// group of one shard, so Group is the only extraction frontend the join
// executors drive. The cost model is additive over documents, therefore
// additive over shards: shards overlap wall-clock work and never change a
// run's cost-model charges, so plan choice does not depend on the shard
// count.
//
// Determinism is the package's load-bearing promise. Document ownership is a
// pure function of (side, docID) — independent of shard count ordering,
// re-runs, and machine — and every stateful operation (cost accounting,
// trace emission, cache mutation) still happens on the single consumer
// goroutine in canonical stream order. The per-shard engines only ever run
// the pure extraction function speculatively; the consumer resolves results
// in the same order it would have without sharding, which is what makes the
// scatter-gather merge bit-identical to the unsharded run at any shard
// count.
package shard

// Kind selects the partitioning function mapping documents to shards.
type Kind int

const (
	// KindHash spreads documents by a mixed hash of (side, docID). This is
	// the default: neighbouring doc IDs land on different shards, so skewed
	// corpora (long documents clustered at one end) still balance.
	KindHash Kind = iota
	// KindRange assigns contiguous docID ranges to shards: shard s owns
	// docIDs in [s·size/N, (s+1)·size/N). Useful when locality matters more
	// than balance (e.g. a future disk layout with one file per shard).
	KindRange
)

// String names the partitioning kind for traces and error messages.
func (k Kind) String() string {
	switch k {
	case KindHash:
		return "hash"
	case KindRange:
		return "range"
	default:
		return "unknown"
	}
}

// Partition describes how a corpus is split: N shards under one of the
// partitioning kinds. N below 2 means unsharded: one shard owns everything.
type Partition struct {
	N    int
	Kind Kind
}

// mix64 is a SplitMix64-style finalizer: a fast, high-quality avalanche of
// the 64-bit input. Pure arithmetic — stable across runs, platforms, and Go
// versions, unlike maphash or map iteration order.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the shard owning docID on the given side of a database with
// dbSize documents. It is a pure function: the same (side, docID) maps to
// the same shard on every run. Partitions with N < 2 own everything on
// shard 0.
func (p Partition) Owner(side, docID, dbSize int) int {
	if p.N < 2 {
		return 0
	}
	switch p.Kind {
	case KindRange:
		if dbSize <= 0 {
			return 0
		}
		s := docID * p.N / dbSize
		if s < 0 {
			s = 0
		}
		if s >= p.N {
			s = p.N - 1
		}
		return s
	default:
		h := mix64(uint64(side)<<32 ^ uint64(uint32(docID)))
		return int(h % uint64(p.N))
	}
}

// WorkersPerShard splits an execution's worker budget across shards:
// ceil(execWorkers/shards), at least 1 — a shard always has one goroutine
// extracting speculatively, even when the run itself asked for no pipeline
// workers (the shards are the parallelism then).
func WorkersPerShard(execWorkers, shards int) int {
	if shards < 1 {
		shards = 1
	}
	w := (execWorkers + shards - 1) / shards
	if w < 1 {
		w = 1
	}
	return w
}

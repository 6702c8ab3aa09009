// Package shard partitions each text database into N deterministic shards
// and runs one pipelined extraction engine per shard. An unsharded run is a
// group of one shard, so Group is the only extraction frontend the join
// executors drive. The cost model is additive over documents, therefore
// additive over shards: the optimizer models shard parallelism with a
// measured scaling curve (EffectiveSpeedup) exactly the way it models worker
// overlap inside one engine (pipeline.EffectiveOverlap).
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

// shardSerialFraction is the non-parallelizable fraction of a sharded run,
// measured from BenchmarkExecShardedIDJN8k rather than assumed ideal: the
// consumer goroutine still merges every tuple stream and charges every cost
// in canonical order, so scatter-gather has a higher serial share than
// worker overlap inside one engine (pipeline.EffectiveOverlap's 3%). With
// s = 0.06 the curve gives 1.9× at 2 shards, 3.4× at 4, 5.6× at 8 — the
// 4-shard point sits above the 2.5× benchmark gate with margin for runner
// noise.
const shardSerialFraction = 0.06

// EffectiveSpeedup returns the scan/extract-time divisor n shards buy,
// following the same Amdahl form as pipeline.EffectiveOverlap but with the
// shard-scaling serial fraction measured from the benchmark. n < 2 returns
// 1 (no sharding, no speedup).
func EffectiveSpeedup(n int) float64 {
	if n < 2 {
		return 1
	}
	return float64(n) / (1 + shardSerialFraction*float64(n-1))
}

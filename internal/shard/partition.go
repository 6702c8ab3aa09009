// Package shard partitions each text database into N deterministic shards.
// A shard is a share of an execution's speculation pool plus a resume
// counter: every execution runs one pipelined extraction engine over the
// task's one extraction cache, and Group counts the documents each shard
// resolved so an adaptive checkpoint can prime a resumed run. An unsharded
// run is a group of one shard, so Group is the only extraction frontend the
// join executors drive. The cost model is additive over documents, so
// shards overlap wall-clock work and never change a run's cost-model
// charges, and plan choice does not depend on the shard count.
//
// Determinism is the package's load-bearing promise. Document ownership is a
// pure function of (side, docID) — independent of shard count ordering,
// re-runs, and machine — and every stateful operation (cost accounting,
// trace emission, cache mutation) happens on the single consumer goroutine
// in canonical stream order. Workers only ever run the pure extraction
// function speculatively, so the output is bit-identical to the unsharded
// run at any shard count.
package shard

// Partition describes how a corpus is split: N shards, each document owned
// by the shard a mixed hash of (side, docID) picks. Neighbouring doc IDs
// land on different shards, so skewed corpora (long documents clustered at
// one end) still balance. N below 2 means unsharded: one shard owns
// everything.
type Partition struct {
	N int
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

// Owner returns the shard owning docID on the given side. It is a pure
// function: the same (side, docID) maps to the same shard on every run.
// Partitions with N < 2 own everything on shard 0.
func (p Partition) Owner(side, docID int) int {
	if p.N < 2 {
		return 0
	}
	h := mix64(uint64(side)<<32 ^ uint64(uint32(docID)))
	return int(h % uint64(p.N))
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

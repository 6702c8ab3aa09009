package pipeline

import (
	"runtime"
	"sync"

	"joinopt/internal/relation"
)

// DefaultWindow is the initial reorder-buffer bound: the number of announced
// extractions in flight per execution before the adaptive controller has any
// signal. The window then moves between MinWindow and MaxWindow: it grows
// while the consumer keeps blocking on extractions it could have announced
// earlier (the window, not the worker pool, is the bottleneck) and shrinks
// when speculation runs so far ahead that completed extractions pile up
// unconsumed (depth beyond what the consumer can absorb only costs memory).
// Growth is further capped by available parallelism — see NewEngine.
const (
	DefaultWindow = 32
	MinWindow     = 8
	MaxWindow     = 256
)

// batchSize is how many announced documents share one scheduling unit: a
// batch is handed to a worker as a whole and completion is signalled by a
// single channel close, so the per-document synchronization cost of the old
// goroutine-per-announcement scheme (spawn + channel + semaphore + close per
// document) is amortized over the batch.
const batchSize = 8

// futState tracks one announced key through the worker pool. Transitions
// happen under Engine.mu; a terminal state is readable without the lock once
// the owning batch's done channel has closed.
type futState uint8

const (
	futPending futState = iota // queued, not yet picked up by a worker
	futRunning                 // extraction in progress
	futDone                    // tuples valid
	futSkipped                 // dropped before a worker reached it
)

// future is one speculative extraction inside a batch. Futures are stored by
// value in their batch's slab (one allocation per batch, not per document)
// and addressed by pointer from the reorder buffer. key and batch are set
// before the batch is published to the pool; state, dropped, collected, and
// counted are guarded by Engine.mu; tuples is written by the worker before
// the batch's done close and read by the consumer only after it.
type future struct {
	key       Key
	batch     *batch
	state     futState
	dropped   bool // Drop called; a worker skips it unless already running
	collected bool // the consumer claimed or abandoned it
	counted   bool // currently counted in doneBacklog
	tuples    []relation.Tuple
}

// batch is the worker-pool scheduling unit: up to batchSize futures
// processed sequentially by one worker, with a single done close once every
// future in it has finished (extracted or skipped). The futs slab is built
// with capacity batchSize and never reallocates, so *future pointers into it
// stay valid for the batch's lifetime.
type batch struct {
	done      chan struct{}
	futs      []future
	submitted bool // consumer-only: queued to the pool
}

// Engine is the per-execution pipeline front end: Announce schedules
// speculative extraction of upcoming documents on the worker pool, and
// Resolve — called by the executor's single stepping goroutine, in stream
// order — returns each document's tuples from the shared cache, from a
// completed (or awaited) speculation, or by extracting inline. The in-flight
// futures keyed by document form the reorder buffer: workers complete in any
// order, the consumer collects strictly in consumption order.
//
// Announce/Resolve/Drop/Lookahead must be called from the consumer
// goroutine. A nil *Engine is the sequential path: Resolve extracts inline,
// everything else no-ops.
//
// The pool is dispatcher-style: announced batches queue up and at most
// `workers` worker goroutines exist at any moment; a worker exits when the
// queue drains and is respawned on the next submission. An engine therefore
// needs no Close — when an execution finishes, its queue is empty and every
// worker has already exited on its own.
//
// Lock discipline: the reorder-buffer maps (inflight, orphans, seen), the
// forming batch, the window, and the adaptation counters fed by the
// consumer are consumer-exclusive and unlocked — the announce dedup path,
// the hottest consumer operation, takes no lock at all. Engine.mu guards
// only what workers share: the batch queue, the worker count, per-future
// state flags, and the done-backlog counters.
type Engine struct {
	cache   *Cache
	extract func(Key) []relation.Tuple
	workers int

	// Consumer-exclusive state.
	window    int
	maxWindow int // adaptive-growth cap: parallelism bounds useful depth
	inflight  map[Key]*future
	orphans   map[Key]*future  // dropped speculations still owned by the pool
	seen      map[Key]struct{} // keys resolved this execution
	pending   *batch           // forming batch, not yet queued

	// Adaptive-window signals. fullRejects, waits, and sinceAdapt are
	// consumer-exclusive; doneBacklog and backlogPeak are mu-guarded (workers
	// update them as extractions finish).
	fullRejects int // announcements refused by a full window
	waits       int // resolves that blocked on an unfinished speculation
	sinceAdapt  int // resolves since the last adaptation

	mu          sync.Mutex
	queue       []*batch
	running     int // live worker goroutines, <= workers
	doneBacklog int // completed, unconsumed futures right now
	backlogPeak int // max doneBacklog since the last adaptation
}

// NewEngine builds an engine over a shared extraction cache (nil = no
// caching) and a worker pool of the given size (< 1 = no speculation).
// extract must be a pure function of the key — it runs on worker goroutines.
// When both caching and speculation are disabled it returns nil, the
// zero-overhead sequential engine.
func NewEngine(cache *Cache, workers int, extract func(Key) []relation.Tuple) *Engine {
	if cache == nil && workers < 1 {
		return nil
	}
	// Window depth beyond what the pool can actually overlap is pure
	// announce-loop overhead: executors peek and announce O(window)
	// documents per step, and at most min(workers, GOMAXPROCS) extractions
	// run at once. Cap adaptive growth at a few batches per usable worker —
	// on a single-CPU machine the window simply never grows.
	p := workers
	if mp := runtime.GOMAXPROCS(0); mp < p {
		p = mp
	}
	maxW := p * batchSize * 4
	if maxW < DefaultWindow {
		maxW = DefaultWindow
	}
	if maxW > MaxWindow {
		maxW = MaxWindow
	}
	return &Engine{
		cache:     cache,
		extract:   extract,
		workers:   workers,
		window:    DefaultWindow,
		maxWindow: maxW,
		inflight:  map[Key]*future{},
		orphans:   map[Key]*future{},
		seen:      map[Key]struct{}{},
	}
}

// HasCache reports whether an extraction cache is attached.
func (e *Engine) HasCache() bool { return e != nil && e.cache != nil }

// Lookahead returns how many upcoming documents an executor should announce
// per step — the current reorder-buffer window plus one batch of probe
// headroom when speculation is on, 0 otherwise. The probe announcements past
// the window are refused and cost only a map lookup, but they are the signal
// that tells the adaptive controller the window — not the worker pool — is
// what limits overlap. The window itself adapts, so the value can change
// between steps.
func (e *Engine) Lookahead() int {
	if e == nil || e.workers < 1 {
		return 0
	}
	return e.window + batchSize
}

// Announce schedules speculative extraction of k. Keys already resolved,
// cached, or in flight are skipped — announcing is always safe and never
// changes results, only overlap. Dropped announcements simply fall back to
// inline extraction at Resolve time. Re-announcing a key whose dropped
// speculation is still owned by the pool re-adopts that speculation instead
// of scheduling a second extraction of the same key.
//
// The return value is false exactly when a full window refused the key:
// nothing announced after it in the same step can be accepted either (slots
// free only at Resolve), so callers announcing a stream in order should stop
// at the first false and resume from that document on a later step. The
// executors combine this with a per-stream cursor over their (prefix-stable)
// peek lists, so each step announces only the newly exposed tail instead of
// re-hashing the whole lookahead window — the announce path is on the
// consumer's critical path, and at full speed it must cost nothing.
func (e *Engine) Announce(k Key) bool {
	if e == nil || e.workers < 1 {
		return false
	}
	if _, dup := e.seen[k]; dup {
		return true
	}
	if _, dup := e.inflight[k]; dup {
		return true
	}
	if orphan := e.orphans[k]; orphan != nil {
		delete(e.orphans, k)
		if e.adoptOrphan(orphan) {
			e.inflight[k] = orphan
			return true
		}
		// The worker already skipped it; schedule afresh below.
	}
	if len(e.inflight) >= e.window {
		e.fullRejects++
		return false
	}
	if e.cache.Contains(k) {
		return true
	}
	if e.pending == nil {
		e.pending = &batch{done: make(chan struct{}), futs: make([]future, 0, batchSize)}
	}
	b := e.pending
	b.futs = append(b.futs, future{key: k, batch: b})
	e.inflight[k] = &b.futs[len(b.futs)-1]
	if len(b.futs) >= batchSize {
		e.submit(b)
	}
	return true
}

// adoptOrphan reclaims a dropped speculation for its re-announced key. It
// returns false when the worker already skipped the orphan — such a future
// will never produce, so the caller must schedule a fresh extraction.
func (e *Engine) adoptOrphan(orphan *future) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if orphan.state == futSkipped {
		return false
	}
	orphan.dropped = false
	orphan.collected = false
	if orphan.state == futDone && !orphan.counted {
		orphan.counted = true
		e.doneBacklog++
	}
	return true
}

// submit queues a batch for the pool and spawns a worker if the pool is
// below its size.
func (e *Engine) submit(b *batch) {
	b.submitted = true
	if b == e.pending {
		e.pending = nil
	}
	e.mu.Lock()
	e.queue = append(e.queue, b)
	if e.running < e.workers {
		e.running++
		go e.worker()
	}
	e.mu.Unlock()
}

// worker drains the batch queue and exits when it is empty. At most
// e.workers workers are ever alive, so a pipelined execution adds a bounded
// number of goroutines no matter how many documents it announces.
func (e *Engine) worker() {
	for {
		e.mu.Lock()
		if len(e.queue) == 0 {
			e.running--
			e.mu.Unlock()
			return
		}
		b := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		e.runBatch(b)
	}
}

// runBatch extracts every live future in the batch, skipping dropped ones,
// then signals completion with the batch's single channel close. All writes
// to the batch's futures happen on this goroutine before the close, so
// consumers reading terminal state after <-b.done need no lock.
func (e *Engine) runBatch(b *batch) {
	for i := range b.futs {
		fut := &b.futs[i]
		e.mu.Lock()
		if fut.dropped {
			// Dropped before extraction started: release the slot without
			// doing the work.
			fut.state = futSkipped
			e.mu.Unlock()
			continue
		}
		fut.state = futRunning
		e.mu.Unlock()
		tuples := e.extract(fut.key)
		e.mu.Lock()
		fut.tuples = tuples
		fut.state = futDone
		if !fut.collected {
			fut.counted = true
			e.doneBacklog++
			if e.doneBacklog > e.backlogPeak {
				e.backlogPeak = e.doneBacklog
			}
		}
		e.mu.Unlock()
	}
	close(b.done)
}

// Resolve returns k's tuples: a cache hit is free (hit=true, and the caller
// charges zero tP); otherwise the speculative result is awaited (or inline
// runs the extraction on the calling goroutine) and the result enters the
// cache, paying full tP. evicted reports cache entries displaced by the
// insertion. The first resolution of a key always pays — speculation only
// moves work onto workers, it never changes what an execution is charged —
// so accounting is independent of prefetch timing.
func (e *Engine) Resolve(k Key, inline func() []relation.Tuple) (tuples []relation.Tuple, hit bool, evicted int) {
	if e == nil {
		return inline(), false, 0
	}
	e.seen[k] = struct{}{}
	fut := e.inflight[k]
	if fut != nil {
		delete(e.inflight, k)
	} else if orphan := e.orphans[k]; orphan != nil {
		// A dropped speculation of this very key is still in the pool: its
		// result is the canonical extraction, so collect it rather than
		// extracting the same document a second time.
		delete(e.orphans, k)
		if e.adoptOrphan(orphan) {
			fut = orphan
		}
	}
	var ready bool
	if fut != nil {
		if !fut.batch.submitted {
			// The consumer caught up with a still-forming batch — flush it
			// now so the wait below terminates.
			e.submit(fut.batch)
		}
		e.mu.Lock()
		fut.collected = true
		if fut.counted {
			fut.counted = false
			e.doneBacklog--
		}
		ready = fut.state == futDone
		e.mu.Unlock()
	}
	e.adapt(fut != nil && !ready)
	if t, ok := e.cache.Get(k); ok {
		if fut != nil {
			// The speculation is redundant; let a worker skip it if it has
			// not started yet.
			e.mu.Lock()
			fut.dropped = true
			e.mu.Unlock()
		}
		return t, true, 0
	}
	if fut != nil {
		<-fut.batch.done
		if fut.state == futDone {
			tuples = fut.tuples
		} else {
			tuples = inline()
		}
	} else {
		tuples = inline()
	}
	evicted = e.cache.Put(k, tuples)
	return tuples, false, evicted
}

// adapt retunes the reorder-buffer window once per window's worth of
// resolutions. Growth signal: the consumer blocked on an unfinished
// speculation while announcements were being refused by a full window —
// there was both demand for deeper lookahead and blocking, so a wider
// window would have kept more workers busy. One wait per interval is real
// signal: a blocked consumer wakes when a batch completes and then drains
// everything the pool finished in parallel, so even full starvation shows
// up as few, bursty waits rather than many. Shrink signal: the
// consumer never blocked yet completed extractions piled up past half the
// window — speculation is running further ahead than the consumer can
// absorb, and the excess depth only costs memory. The window never leaves
// [MinWindow, MaxWindow]. Window size changes speculation depth only, never
// results: the bit-identity property tests hold across every window
// trajectory.
func (e *Engine) adapt(waited bool) {
	if waited {
		e.waits++
	}
	e.sinceAdapt++
	if e.sinceAdapt < e.window {
		return
	}
	e.mu.Lock()
	peak := e.backlogPeak
	e.backlogPeak = e.doneBacklog
	e.mu.Unlock()
	switch {
	case e.fullRejects > 0 && e.waits > 0:
		if w := e.window * 2; w <= e.maxWindow {
			e.window = w
		} else {
			e.window = e.maxWindow
		}
	case e.waits == 0 && peak*2 > e.window:
		if w := e.window / 2; w >= MinWindow {
			e.window = w
		} else {
			e.window = MinWindow
		}
	}
	e.fullRejects = 0
	e.waits = 0
	e.sinceAdapt = 0
}

// Drop abandons any speculative extraction of k without consuming or caching
// its result, freeing the key's reorder-buffer slot. Executors call it when a
// substrate fault hands them a different document body (a truncated fetch)
// than the one workers speculated on. A dropped extraction no worker has
// started yet is skipped entirely — the slot is released without doing the
// work — and the speculation is remembered as an orphan so a re-announcement
// (or resolution) of the same key re-adopts it instead of extracting the
// document twice.
func (e *Engine) Drop(k Key) {
	if e == nil {
		return
	}
	fut := e.inflight[k]
	if fut == nil {
		return
	}
	delete(e.inflight, k)
	e.mu.Lock()
	fut.dropped = true
	fut.collected = true
	if fut.counted {
		fut.counted = false
		e.doneBacklog--
	}
	skipped := fut.state == futSkipped
	e.mu.Unlock()
	if !skipped {
		e.orphans[k] = fut
	}
}

// Package durable is joinoptd's crash-safety layer: a write-ahead job
// journal, a versioned snapshot store for adaptive checkpoints and final
// results, and a disk tier behind the in-memory extraction cache — all
// rooted in one state directory so a SIGKILL'd daemon restarted against the
// same -state-dir replays its jobs instead of losing them.
//
// Every byte the store writes is checksummed (CRC32-IEEE) and every byte it
// reads back is verified before it is trusted: a corrupt journal line, a
// bit-flipped snapshot, or a damaged cache entry is detected, counted, and
// skipped — recovery then re-does the lost work from the last good state
// rather than resuming from garbage. Durability never gates availability:
// when the disk fails persistently the store degrades to memory-only
// operation (jobs keep running, /readyz reports the degradation) instead of
// failing jobs.
//
// The on-disk layout under the state directory:
//
//	journal.ndjson     append-only job journal, one CRC'd record per line
//	snapshots/
//	  <job>.ckpt       latest adaptive checkpoint, versioned CRC envelope
//	  <job>.result     final JobResult of a finished job, same envelope
//	cache/<workload>/
//	  s<side>_d<doc>_t<thetabits>  one extraction result, CRC'd JSON
//	standby/
//	  <job>.sb         replicated peer job (cluster migration), same envelope
//
// All writes that recovery depends on go through the atomic tmp+rename
// protocol (write temp file, fsync it, rename over the target) so readers
// never observe a half-written snapshot; journal appends are fsync'd on
// every job-state transition, so the journal is current up to the last
// acknowledged transition when power is cut.
package durable

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"joinopt/internal/faults"
	"joinopt/internal/obs"
)

// Options configures a Store.
type Options struct {
	// Faults, when set, injects deterministic write/sync/corruption errors
	// into every disk operation (see faults.DiskFaults) — the crash-recovery
	// harness runs the daemon under these.
	Faults *faults.DiskInjector
	// Metrics receives joinopt_durable_errors_total counts (may be nil).
	Metrics *obs.Registry
	// DegradeAfter is how many consecutive transient write/sync failures
	// flip the store into memory-only degraded mode (default 3). A permanent
	// disk error degrades immediately.
	DegradeAfter int
}

// Store is the durable state of one daemon: journal + snapshots + cache
// tier. All methods are safe for concurrent use. Every write path absorbs
// disk errors — callers never fail a job because persistence failed; they
// observe the failure through Degraded and the durable-error counters.
type Store struct {
	dir   string
	opts  Options
	errsC func(op string) // bumps joinopt_durable_errors_total{op=...}

	mu       sync.Mutex
	journal  *os.File
	frozen   bool
	degraded bool
	reason   string
	failures int // consecutive write/sync failures
}

// Open initialises the state directory, replays the journal, and returns
// the store plus everything recoverable from disk. A missing or empty
// directory is a valid cold start. Corrupt journal lines (including a
// torn final line from a crash mid-append) are skipped and counted, never
// fatal. Open also compacts the journal: the surviving records are
// rewritten atomically, so damage does not accumulate across restarts.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if opts.DegradeAfter <= 0 {
		opts.DegradeAfter = 3
	}
	s := &Store{dir: dir, opts: opts}
	s.errsC = func(op string) {
		if m := opts.Metrics; m != nil {
			m.Counter(obs.Series(obs.MetricDurableErrs, "op", op)).Inc()
		}
	}
	for _, d := range []string{dir, filepath.Join(dir, "snapshots"), filepath.Join(dir, "cache"), filepath.Join(dir, "standby")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, fmt.Errorf("durable: creating %s: %w", d, err)
		}
	}
	rec := s.replay()
	if err := s.compact(rec); err != nil {
		// A failed compaction is a durability loss, not a startup failure:
		// keep appending to the old journal.
		s.noteFailure("append", err)
	}
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.degrade("journal unwritable: " + err.Error())
		s.errsC("append")
	} else {
		s.journal = f
	}
	return s, rec, nil
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.ndjson") }

// Degraded reports whether the store has fallen back to memory-only
// operation, and why. Degradation is sticky for the life of the process:
// a disk that failed under load is not trusted again until a restart
// re-verifies it.
func (s *Store) Degraded() (bool, string) {
	if s == nil {
		return false, ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded, s.reason
}

// Freeze stops every future write silently, leaving the on-disk state
// exactly as of this instant. It simulates the moment power is cut: tests
// freeze a store mid-run, let the process continue in memory, then recover
// a second store from the same directory and must see only what had been
// persisted before the freeze. Idempotent; there is no thaw.
func (s *Store) Freeze() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.frozen = true
	s.mu.Unlock()
}

// Close releases the journal file handle. The store must not be used after.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

// degrade flips the store into memory-only mode. Callers hold mu or are in
// single-threaded startup.
func (s *Store) degrade(reason string) {
	if !s.degraded {
		s.degraded = true
		s.reason = reason
	}
}

// noteFailure counts a write-class failure under op and degrades the store
// after DegradeAfter consecutive ones (immediately for permanent injected
// faults). Callers hold mu or are in single-threaded startup.
func (s *Store) noteFailure(op string, err error) {
	s.errsC(op)
	s.failures++
	permanent := false
	if fe, ok := err.(*faults.Error); ok {
		permanent = !fe.Transient
	}
	if permanent || s.failures >= s.opts.DegradeAfter {
		s.degrade(fmt.Sprintf("disk %s failed: %v", op, err))
	}
}

// noteSuccess resets the consecutive-failure counter. Callers hold mu.
func (s *Store) noteSuccess() { s.failures = 0 }

// crc is the store-wide checksum (CRC32-IEEE, like the checkpoint codec).
func crc(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// writeFileAtomic writes data to path via the tmp(+fsync)+rename protocol,
// threading the injected fault points. sync is false only for cache
// entries, whose loss on power cut is just a future miss — recovery-
// critical files (journal, snapshots) always sync before the rename. The
// caller handles the error (counting + degradation); on any failure the
// target file is untouched.
func (s *Store) writeFileAtomic(path string, data []byte, sync bool) error {
	if err := s.opts.Faults.Write(); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := s.opts.Faults.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readBack reads a file and passes it through the corruption injector, so
// seeded fault profiles exercise the checksum rejection paths exactly as a
// real bit flip would.
func (s *Store) readBack(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s.opts.Faults.Corrupt(b)
	return b, nil
}

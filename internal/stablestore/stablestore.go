// Package stablestore simulates the stable storage of the paper's system
// model (Section 2: "The crash of a process has no impact on its stable
// storage"). A Store outlives the process object that uses it: the cluster
// harness keeps the Store when it crashes a database server and hands the
// same Store back on recovery, while all volatile state is rebuilt.
//
// Forced (synchronous) writes carry a configurable latency, which is how the
// benchmark harness reproduces the eager-log-IO cost that separates 2PC
// (forced disk writes, Figure 8: log-start 12.5 ms) from the paper's
// replicated scheme (in-memory consensus round, 4.5 ms).
//
// A server has one log device, so forces queue behind each other: every
// forced write and every Sync pays one device force of its own, and the
// store combines nothing. Group commit is its caller's: the data server
// appends a mailbox drain's records unforced and pays one Sync for them all
// (core's two-stage data server), so a batch is what queued behind the force
// in flight, and at depth 1 every forced record is one force — the paper's
// cost.
//
// A file-backed store fails stop: a Flush or fsync error panics with the
// error instead of reporting the record durable. Retrying the fsync is not
// safe, because the kernel may have dropped the dirty pages it failed to
// write; the server crashes and recovers from what its journal holds.
package stablestore

import (
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/spin"
)

// Store is one process's stable storage: named append-only logs plus a small
// key-value area for registers like the incarnation counter.
type Store struct {
	forceLatency atomic.Int64 // nanoseconds per device force
	forcedWrites atomic.Int64 // forced writes requested (Append force, Put, Sync)
	totalWrites  atomic.Int64
	syncs        atomic.Int64 // device forces actually paid

	mu   sync.Mutex
	logs map[string][][]byte // guarded by mu
	kv   map[string][]byte   // guarded by mu

	// forceMu serializes access to the (simulated) log device: a server has
	// one, so device forces queue behind each other.
	forceMu sync.Mutex

	// persist, when non-nil, journals every mutation to disk (OpenFile).
	persist *filePersist
}

// New creates an empty store whose forced writes take forceLatency.
func New(forceLatency time.Duration) *Store {
	s := &Store{
		logs: make(map[string][][]byte),
		kv:   make(map[string][]byte),
	}
	s.forceLatency.Store(int64(forceLatency))
	return s
}

// SetForceLatency changes the simulated fsync cost.
func (s *Store) SetForceLatency(d time.Duration) { s.forceLatency.Store(int64(d)) }

// SetBatchWindow is ignored; set only by benchmark/ until ROADMAP item 9.
// The store combines no forces: batching is the data server's drain.
func (s *Store) SetBatchWindow(time.Duration) {}

// SetMaxBatch is ignored; set only by benchmark/ until ROADMAP item 9.
func (s *Store) SetMaxBatch(int) {}

// SetAdaptive is ignored; set only by benchmark/ until ROADMAP item 9.
func (s *Store) SetAdaptive(bool) {}

// ForcedWrites returns how many forced writes were requested and completed:
// forced appends, puts and Syncs (metrics).
func (s *Store) ForcedWrites() int64 { return s.forcedWrites.Load() }

// TotalWrites returns how many appends (forced or not) have completed.
func (s *Store) TotalWrites() int64 { return s.totalWrites.Load() }

// Syncs returns how many device forces (fsyncs) were actually paid: one per
// forced write on a store with a device, none on one without (zero latency,
// no file).
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// Append adds rec to the named log. If force is true the call blocks until
// the record is durable through a device force of its own, modelling a
// synchronous disk write;
// unforced appends return immediately (the data still survives crashes — we
// simulate a well-behaved write cache, which is sufficient because the
// protocols only rely on durability of records they forced).
func (s *Store) Append(log string, rec []byte, force bool) {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	s.mu.Lock()
	s.logs[log] = append(s.logs[log], cp)
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.journal(tagAppend, log, cp, false)
	}
	s.totalWrites.Add(1)
	if force {
		s.force()
		s.forcedWrites.Add(1)
	}
}

// Sync forces the log device once: every record appended (forced or not)
// before the call is durable when it returns. It is the group-commit entry
// point for batched callers — append a batch of records unforced, then pay
// one Sync to cover them all. A Sync counts as one forced write.
func (s *Store) Sync() {
	s.force()
	s.forcedWrites.Add(1)
}

// force makes everything journaled so far durable and pays the simulated
// device latency, queued behind any force in flight.
func (s *Store) force() {
	if time.Duration(s.forceLatency.Load()) <= 0 && s.persist == nil {
		// No device to speak of: nothing to pay — and nothing counted,
		// Syncs() reports device forces actually paid.
		return
	}
	s.forceMu.Lock()
	defer s.forceMu.Unlock()
	if s.persist != nil {
		//etxlint:allow lockheld — forceMu is the one log device: a force waits for the one ahead of it
		s.persist.sync()
	}
	if d := time.Duration(s.forceLatency.Load()); d > 0 {
		//etxlint:allow lockheld — the simulated device latency must be inside the forceMu critical section to model one device
		spin.Sleep(d)
	}
	s.syncs.Add(1)
}

// ReadLog returns a copy of all records appended to the named log, in order.
func (s *Store) ReadLog(log string) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.logs[log]
	out := make([][]byte, len(recs))
	for i, r := range recs {
		cp := make([]byte, len(r))
		copy(cp, r)
		out[i] = cp
	}
	return out
}

// LogLen returns the number of records in the named log.
func (s *Store) LogLen(log string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.logs[log])
}

// TruncateLog discards the named log's records (checkpointing support).
func (s *Store) TruncateLog(log string) {
	s.mu.Lock()
	delete(s.logs, log)
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.journal(tagTrunc, log, nil, true)
	}
}

// Put stores a small value under key (e.g. the incarnation counter). Put is
// always forced.
func (s *Store) Put(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	s.kv[key] = cp
	s.mu.Unlock()
	if s.persist != nil {
		s.persist.journal(tagPut, key, cp, false)
	}
	s.totalWrites.Add(1)
	s.force()
	s.forcedWrites.Add(1)
}

// Get returns the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true
}

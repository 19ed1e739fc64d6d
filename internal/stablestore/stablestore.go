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
// A server has one log device, so forces queue behind each other. By default
// every forced write pays its own serialized device force — the per-database
// commit bottleneck that makes sharding a throughput lever. SetBatchWindow
// switches on the group-commit combiner: concurrent forced writes form a
// cohort, one leader pays a single device force (one fsync) that covers
// every record the cohort appended, and the whole cohort is released
// together. The leader never waits to batch: a cohort stays open only until
// its leader reaches the device, so everything that arrives while the
// previous force is in flight piggybacks on the next one, and a lone force
// on an idle device goes straight through.
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
	combine      atomic.Bool  // group commit on
	maxBatch     atomic.Int64 // cohort size cap; 0 = unlimited
	forcedWrites atomic.Int64 // forced writes requested (Append force, Put, Sync)
	totalWrites  atomic.Int64
	syncs        atomic.Int64 // device forces actually paid

	mu   sync.Mutex
	logs map[string][][]byte // guarded by mu
	kv   map[string][]byte   // guarded by mu

	// forceMu serializes access to the (simulated) log device: a server has
	// one, so device forces queue behind each other.
	forceMu sync.Mutex

	// cohortMu guards the group-commit cohort currently open for enrollment.
	cohortMu sync.Mutex
	cohort   *cohort // guarded by cohortMu

	// persist, when non-nil, journals every mutation to disk (OpenFile).
	persist *filePersist
}

// cohort is one group-commit batch: n writers released together by the one
// leader's device force.
type cohort struct {
	n    int
	done chan struct{}
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

// SetBatchWindow switches the group-commit combiner on for any positive d
// and off for 0, the default, where every forced write pays its own
// serialized device force. The value of a positive d is ignored: no leader
// waits for followers, a cohort is whatever enrolled while the force ahead
// of it was in flight.
func (s *Store) SetBatchWindow(d time.Duration) { s.combine.Store(d > 0) }

// SetMaxBatch caps the group-commit cohort size; 0 means unlimited.
func (s *Store) SetMaxBatch(n int) { s.maxBatch.Store(int64(n)) }

// SetAdaptive does nothing: no cohort leader waits for followers, so there
// is no window to adapt. It stays for callers that still set it.
func (s *Store) SetAdaptive(bool) {}

// ForcedWrites returns how many forced writes were requested and completed:
// forced appends, puts and Syncs (metrics).
func (s *Store) ForcedWrites() int64 { return s.forcedWrites.Load() }

// TotalWrites returns how many appends (forced or not) have completed.
func (s *Store) TotalWrites() int64 { return s.totalWrites.Load() }

// Syncs returns how many device forces (fsyncs) were actually paid. Without
// batching it equals ForcedWrites; with the combiner on it is lower, and
// ForcedWrites/Syncs is the mean group-commit batch size.
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// Append adds rec to the named log. If force is true the call blocks until
// the record is durable — through its own device force, or as a member of a
// group-commit cohort sharing one — modelling a synchronous disk write;
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
// one Sync to cover them all. A Sync counts as one forced write and goes
// through the same combiner as forced appends.
func (s *Store) Sync() {
	s.force()
	s.forcedWrites.Add(1)
}

// force makes everything journaled so far durable and pays the simulated
// device latency, combining with concurrent forces when group commit is on.
func (s *Store) force() {
	if time.Duration(s.forceLatency.Load()) <= 0 && s.persist == nil {
		// No device to speak of: nothing to combine, nothing to pay — and
		// nothing counted, Syncs() reports device forces actually paid.
		return
	}
	if !s.combine.Load() {
		// Pre-group-commit behaviour: one serialized device force each.
		s.forceMu.Lock()
		s.syncDevice()
		s.forceMu.Unlock()
		s.syncs.Add(1)
		return
	}

	// Group commit. Join the open cohort if there is one with room...
	s.cohortMu.Lock()
	if c := s.cohort; c != nil {
		if max := int(s.maxBatch.Load()); max <= 0 || c.n < max {
			c.n++
			s.cohortMu.Unlock()
			<-c.done
			return
		}
	}
	// ...else lead a new one.
	c := &cohort{n: 1, done: make(chan struct{})}
	s.cohort = c
	s.cohortMu.Unlock()

	// Head straight for the device. The cohort stays open until the device
	// is actually ours: everything that arrives while the previous force is
	// still in flight joins this cohort and is covered by our single force.
	s.forceMu.Lock()
	s.cohortMu.Lock()
	if s.cohort == c {
		s.cohort = nil
	}
	s.cohortMu.Unlock()
	// Every member's record was journaled before it enrolled, and enrollment
	// closed before this force: one force covers the whole cohort.
	s.syncDevice()
	s.forceMu.Unlock()
	s.syncs.Add(1)
	close(c.done)
}

// syncDevice performs one device force: flush+fsync of the journal when
// file-backed, plus the simulated latency. Caller holds forceMu.
func (s *Store) syncDevice() {
	if s.persist != nil {
		//etxlint:allow lockheld — serializing device forces is forceMu's whole purpose; the group-commit combiner amortizes the wait
		s.persist.sync()
	}
	if d := time.Duration(s.forceLatency.Load()); d > 0 {
		//etxlint:allow lockheld — the simulated device latency must be inside the forceMu critical section to model one device
		spin.Sleep(d)
	}
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

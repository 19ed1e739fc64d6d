// Package lockmgr provides strict two-phase locking, one serializability
// protocol of the kind the paper assumes ("We assume the existence of some
// serializability protocol [3]"). The database engine (internal/xadb) no
// longer uses it — it orders conflicts on speculative per-key chains and
// gates votes instead — and the package remains as the lock-manager cost the
// layer probes and the root micro-benchmarks measure, and as the type of
// the engine's always-zero LockStats.
//
// Locks are per-key, shared or exclusive, granted in FIFO order to prevent
// starvation. Deadlocks are resolved by timeout: Acquire takes a context and
// fails when it is cancelled, after which the engine aborts the transaction
// branch — matching how the paper's protocol treats any compute() failure
// (the try aborts and the client retries a fresh try).
package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/metrics"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota + 1
	Exclusive
)

// String returns "shared" or "exclusive".
func (m Mode) String() string {
	switch m {
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ErrTimeout reports an Acquire that gave up waiting (deadlock resolution).
var ErrTimeout = errors.New("lockmgr: lock wait timed out")

// Manager is a lock table. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	locks map[string]*lockState
	held  map[id.ResultID]map[string]Mode // per-transaction held keys

	// Contention counters (snapshot via Stats): every Acquire call, the
	// subset that had to queue, the waits abandoned on timeout, and the
	// cumulative time spent queued.
	acquires  metrics.Counter
	waits     metrics.Counter
	timeouts  metrics.Counter
	waitNanos metrics.Counter
}

// Stats is a snapshot of the manager's contention counters.
type Stats struct {
	// Acquires counts every Acquire call (including re-acquisitions of an
	// already-held lock).
	Acquires uint64
	// Waits counts acquisitions that found the lock unavailable and queued.
	Waits uint64
	// Timeouts counts waits abandoned on context expiry (deadlock
	// resolution by abort-and-retry).
	Timeouts uint64
	// WaitTime is the cumulative time acquirers spent queued.
	WaitTime time.Duration
}

// Stats snapshots the contention counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquires: m.acquires.Load(),
		Waits:    m.waits.Load(),
		Timeouts: m.timeouts.Load(),
		WaitTime: time.Duration(m.waitNanos.Load()),
	}
}

// Sub returns s - base, for measuring a bounded interval.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Acquires: s.Acquires - base.Acquires,
		Waits:    s.Waits - base.Waits,
		Timeouts: s.Timeouts - base.Timeouts,
		WaitTime: s.WaitTime - base.WaitTime,
	}
}

// String renders the counters for liveness dumps.
func (s Stats) String() string {
	return fmt.Sprintf("acquires=%d waits=%d timeouts=%d waited=%s",
		s.Acquires, s.Waits, s.Timeouts, s.WaitTime)
}

type lockState struct {
	holders map[id.ResultID]Mode
	queue   []*waiter
}

type waiter struct {
	tx      id.ResultID
	mode    Mode
	granted chan struct{}
	gone    bool // abandoned (timeout); skip when granting
}

// New creates an empty lock manager.
func New() *Manager {
	return &Manager{
		locks: make(map[string]*lockState),
		held:  make(map[id.ResultID]map[string]Mode),
	}
}

// Acquire takes key in the given mode on behalf of tx, blocking until granted
// or ctx is done. Re-acquiring an already-held lock is a no-op; holding a
// shared lock and requesting exclusive attempts an upgrade.
func (m *Manager) Acquire(ctx context.Context, tx id.ResultID, key string, mode Mode) error {
	m.acquires.Inc()
	m.mu.Lock()
	ls, ok := m.locks[key]
	if !ok {
		ls = &lockState{holders: make(map[id.ResultID]Mode)}
		m.locks[key] = ls
	}

	if cur, holds := ls.holders[tx]; holds {
		if cur == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil // already sufficient
		}
		// Upgrade shared -> exclusive: immediate if sole holder.
		if len(ls.holders) == 1 {
			ls.holders[tx] = Exclusive
			m.recordLocked(tx, key, Exclusive)
			m.mu.Unlock()
			return nil
		}
		// Otherwise wait like everyone else; the shared lock stays held, so
		// two upgraders deadlock — the timeout resolves that, as documented.
	} else if m.grantableLocked(ls, tx, mode) {
		ls.holders[tx] = mode
		m.recordLocked(tx, key, mode)
		m.mu.Unlock()
		return nil
	}

	w := &waiter{tx: tx, mode: mode, granted: make(chan struct{})}
	ls.queue = append(ls.queue, w)
	m.mu.Unlock()
	m.waits.Inc()
	waitStart := time.Now()

	select {
	case <-w.granted:
		m.waitNanos.Add(uint64(time.Since(waitStart)))
		return nil
	case <-ctx.Done():
		m.waitNanos.Add(uint64(time.Since(waitStart)))
		m.mu.Lock()
		select {
		case <-w.granted:
			// Granted concurrently with cancellation: keep the lock.
			m.mu.Unlock()
			return nil
		default:
		}
		w.gone = true
		m.promoteLocked(key, ls)
		m.mu.Unlock()
		m.timeouts.Inc()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%w: %s on %q", ErrTimeout, mode, key)
		}
		return fmt.Errorf("lockmgr: acquire %q: %w", key, ctx.Err())
	}
}

// grantableLocked reports whether tx may take key in mode right now:
// compatible with all holders and not overtaking earlier waiters.
func (m *Manager) grantableLocked(ls *lockState, tx id.ResultID, mode Mode) bool {
	for _, w := range ls.queue {
		if !w.gone {
			return false // FIFO fairness: queue is not empty
		}
	}
	if len(ls.holders) == 0 {
		return true
	}
	if mode == Exclusive {
		return false
	}
	for holder, hm := range ls.holders {
		if hm == Exclusive && holder != tx {
			return false
		}
	}
	return true
}

// promoteLocked grants queued waiters that have become compatible.
func (m *Manager) promoteLocked(key string, ls *lockState) {
	// Compact abandoned waiters first.
	live := ls.queue[:0]
	for _, w := range ls.queue {
		if !w.gone {
			live = append(live, w)
		}
	}
	ls.queue = live

	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if cur, holds := ls.holders[w.tx]; holds && w.mode == Exclusive && cur == Shared {
			// Pending upgrade: grant only when sole holder.
			if len(ls.holders) != 1 {
				return
			}
			ls.holders[w.tx] = Exclusive
			m.recordLocked(w.tx, key, Exclusive)
		} else {
			granted := len(ls.holders) == 0
			if !granted && w.mode == Shared {
				granted = true
				for _, hm := range ls.holders {
					if hm == Exclusive {
						granted = false
					}
				}
			}
			if !granted {
				return
			}
			ls.holders[w.tx] = w.mode
			m.recordLocked(w.tx, key, w.mode)
		}
		ls.queue = ls.queue[1:]
		close(w.granted)
		if w.mode == Exclusive {
			return // nothing after an exclusive grant can proceed
		}
	}
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(m.locks, key)
	}
}

func (m *Manager) recordLocked(tx id.ResultID, key string, mode Mode) {
	byKey, ok := m.held[tx]
	if !ok {
		byKey = make(map[string]Mode)
		m.held[tx] = byKey
	}
	byKey[key] = mode
}

// ReleaseAll drops every lock held by tx and wakes eligible waiters. The
// engine calls it at commit/abort (strict 2PL: no early release).
func (m *Manager) ReleaseAll(tx id.ResultID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byKey := m.held[tx]
	delete(m.held, tx)
	for key := range byKey {
		ls, ok := m.locks[key]
		if !ok {
			continue
		}
		delete(ls.holders, tx)
		m.promoteLocked(key, ls)
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(m.locks, key)
		}
	}
}

// Held returns the keys tx currently holds, sorted (observability/tests).
func (m *Manager) Held(tx id.ResultID) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.held[tx]))
	for k := range m.held[tx] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HeldMode returns the mode tx holds on key, if any.
func (m *Manager) HeldMode(tx id.ResultID, key string) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mode, ok := m.held[tx][key]
	return mode, ok
}

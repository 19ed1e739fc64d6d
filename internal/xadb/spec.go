// Queue-oriented speculative execution, the engine's only execution
// discipline: no operation ever waits on a lock. The data server plans each
// drained mailbox batch into per-key FIFO queues in a deterministic order,
// and the engine orders same-key steps itself — each Get/Put/Add/CheckGE is
// one critical section that joins the key's chain, resolves the value it
// sees and records its write — so the per-key chain below, not a lock
// table, is the serialization artifact.
//
// Execution is speculative, in the lineage of queue-oriented deterministic
// processors (Q-Store/QueCC): an operation never waits for a conflicting
// branch to decide. It reads the pending value of the last writer in the
// key's chain (or the committed store when the chain holds no write) and
// appends itself to the chain. Correctness is enforced at commitment time
// instead of execution time:
//
//   - a branch may vote yes only once every chain predecessor has decided
//     (the vote gate), so decide order extends chain order and write-sets
//     apply to the store in serialization order;
//   - if a predecessor a branch read from aborts, the branch is poisoned and
//     votes no (the speculative cascade) — the try aborts and the client's
//     retry machinery re-executes it, so no delivered result ever rests on
//     an aborted value;
//   - a branch that writes a key after a later accessor joined the chain is
//     poisoned (chain order is the serialization order; rewriting history
//     is refused rather than reordered).
//
// A drain's vote whose gate is closed is parked in its chain node with the
// node that asked for it. The decide that opens the gate moves it to a
// released list, and the drain that ran that decide votes it — unforced,
// under the drain's one shared device force — and returns it with its own
// replies. Each parked vote carries one deadline, Config.LockTimeout after
// it parked; a periodic sweep (Engine.ExpireParked) poisons the expired ones
// and answers no, which resolves chain-order inversions — two tries each
// first on one of two keys, on one engine or across shards — by
// timeout-abort.
package xadb

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/lockmgr"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/spin"
)

// spec is the engine's speculative-chain state: one FIFO chain of undecided
// accessors per key. All fields are guarded by mu; the engine always
// acquires a branch mutex before mu, never the reverse.
type spec struct {
	mu       sync.Mutex
	timeout  time.Duration // a parked vote's bound (Config.LockTimeout)
	chains   map[string][]*specNode
	nodes    map[id.ResultID]*specNode
	released []parkedVote // parked votes whose gate opened, not yet voted

	execs    metrics.Counter // operations executed without a lock acquisition
	deferred metrics.Counter // votes that found their gate closed
	cascades metrics.Counter // branches poisoned by an aborted read-from pred
	rewrites metrics.Counter // branches poisoned for writing behind the tail
}

// specNode is one undecided branch's membership in the chains it touched.
type specNode struct {
	rid  id.ResultID
	keys map[string]bool   // chains this node sits in
	vals map[string][]byte // pending write per key (absent = read-only entry)

	pending  map[id.ResultID]bool // undecided chain predecessors
	readFrom map[id.ResultID]bool // predecessors whose pending values we read
	succs    []*specNode          // nodes that recorded us as a predecessor

	cascade string          // non-empty: a read-from predecessor aborted
	waiters []chan struct{} // blocking Vote callers, closed when the gate opens

	askers   []id.NodeID // nodes whose parked vote on this branch is unanswered
	deadline time.Time   // when the parked vote expires (set by the first park)
}

// parkedVote is a parked vote taken out of its node to be answered: the
// branch and every node that asked for its vote.
type parkedVote struct {
	rid    id.ResultID
	askers []id.NodeID
}

// SpecStats is a snapshot of the speculative executor's counters.
type SpecStats struct {
	Execs    uint64 // operations executed lock-free
	Deferred uint64 // votes that found chain predecessors undecided
	Cascades uint64 // poisons cascaded from aborted predecessors
	Rewrites uint64 // poisons from writes behind the chain tail
}

// Stats snapshots the counters.
func (s *spec) Stats() SpecStats {
	return SpecStats{
		Execs:    s.execs.Load(),
		Deferred: s.deferred.Load(),
		Cascades: s.cascades.Load(),
		Rewrites: s.rewrites.Load(),
	}
}

// String renders the counters for liveness dumps.
func (s SpecStats) String() string {
	return fmt.Sprintf("spec{execs=%d deferred=%d cascades=%d rewrites=%d}",
		s.Execs, s.Deferred, s.Cascades, s.Rewrites)
}

func newSpec(timeout time.Duration) *spec {
	return &spec{
		timeout: timeout,
		chains:  make(map[string][]*specNode),
		nodes:   make(map[id.ResultID]*specNode),
	}
}

// join returns rid's node and its position in key's chain, appending a fresh
// tail entry — with dependencies on every current chain member — on first
// access. Caller holds s.mu.
func (s *spec) join(rid id.ResultID, key string) (*specNode, int) {
	n := s.nodes[rid]
	if n == nil {
		n = &specNode{
			rid:      rid,
			keys:     make(map[string]bool),
			vals:     make(map[string][]byte),
			pending:  make(map[id.ResultID]bool),
			readFrom: make(map[id.ResultID]bool),
		}
		s.nodes[rid] = n
	}
	chain := s.chains[key]
	if n.keys[key] {
		for i, m := range chain {
			if m == n {
				return n, i
			}
		}
	}
	for _, p := range chain {
		if !n.pending[p.rid] {
			n.pending[p.rid] = true
			p.succs = append(p.succs, n)
		}
	}
	n.keys[key] = true
	s.chains[key] = append(chain, n)
	return n, len(chain)
}

// visible resolves the value of key as seen from n's chain position pos:
// n's own pending write, else the nearest preceding pending write (recorded
// as read-from), else the committed store. Caller holds s.mu.
func (s *spec) visible(n *specNode, pos int, key string, store *kv.Store) []byte {
	if v, ok := n.vals[key]; ok {
		return v
	}
	chain := s.chains[key]
	for i := pos - 1; i >= 0; i-- {
		if v, ok := chain[i].vals[key]; ok {
			n.readFrom[chain[i].rid] = true
			return v
		}
	}
	v, _ := store.Get(key)
	return v
}

// write records n's pending write of key at chain position pos. It fails
// (non-empty reason) when a later accessor has already joined the chain:
// their reads resolved against the chain as it was, so rewriting behind them
// would fork the serialization order. Caller holds s.mu.
func (s *spec) write(n *specNode, pos int, key string, val []byte) string {
	if tail := len(s.chains[key]); pos != tail-1 {
		s.rewrites.Inc()
		return fmt.Sprintf("spec: write of %q behind the chain tail (position %d of %d)", key, pos, tail)
	}
	n.vals[key] = val
	return ""
}

// seed installs a recovered in-doubt branch's write-set as chain state, so
// post-recovery accessors order behind it and gate on its eventual decide.
func (s *spec) seed(rid id.ResultID, ws []kv.Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range ws {
		n, _ := s.join(rid, w.Key)
		n.vals[w.Key] = slices.Clone(w.Val)
	}
}

// gate reports whether rid may vote: ready when every chain predecessor has
// decided (or rid never touched a chain). A non-empty cascade reason means a
// read-from predecessor aborted — the caller must poison the branch and vote
// no. When not ready and askers is non-empty the vote is parked: the askers
// are recorded in rid's node and the vote is answered by whoever releases
// it. When not ready and askers is empty (a blocking caller), the returned
// channel is closed when the gate opens; the caller re-checks after the wake.
func (s *spec) gate(rid id.ResultID, askers []id.NodeID) (wait <-chan struct{}, ready bool, cascade string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[rid]
	if n == nil {
		return nil, true, ""
	}
	if n.cascade != "" {
		return nil, true, n.cascade
	}
	if len(n.pending) == 0 {
		return nil, true, ""
	}
	s.deferred.Inc()
	if len(askers) == 0 {
		ch := make(chan struct{})
		n.waiters = append(n.waiters, ch)
		return ch, false, ""
	}
	if len(n.askers) == 0 {
		n.deadline = time.Now().Add(s.timeout)
	}
	for _, a := range askers {
		if !slices.Contains(n.askers, a) {
			n.askers = append(n.askers, a)
		}
	}
	return nil, false, ""
}

// release wakes n's blocking voters and moves its parked vote, if any, onto
// the released list. Caller holds s.mu.
func (s *spec) release(n *specNode) {
	for _, w := range n.waiters {
		close(w)
	}
	n.waiters = nil
	if len(n.askers) > 0 {
		s.released = append(s.released, parkedVote{rid: n.rid, askers: n.askers})
		n.askers = nil
	}
}

// finish removes rid from every chain it joined and opens its successors'
// gates: an abort poisons (cascades to) every successor that read rid's
// pending values, and each successor whose gate opens is released. A vote
// still parked on rid itself is released too, to be answered with the
// outcome. Caller holds the branch mutex (never s.mu).
func (s *spec) finish(rid id.ResultID, aborted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[rid]
	if n == nil {
		return
	}
	delete(s.nodes, rid)
	for key := range n.keys {
		chain := s.chains[key]
		if i := slices.Index(chain, n); i >= 0 {
			chain = slices.Delete(chain, i, i+1)
		}
		if len(chain) == 0 {
			delete(s.chains, key)
		} else {
			s.chains[key] = chain
		}
	}
	s.release(n)
	for _, succ := range n.succs {
		if !succ.pending[rid] {
			continue
		}
		delete(succ.pending, rid)
		if aborted && succ.readFrom[rid] && succ.cascade == "" {
			succ.cascade = fmt.Sprintf("spec: read-from predecessor %s aborted", rid)
			s.cascades.Inc()
		}
		if len(succ.pending) == 0 || succ.cascade != "" {
			s.release(succ)
		}
	}
}

// takeReleased empties the released list.
func (s *spec) takeReleased() []parkedVote {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.released
	s.released = nil
	return out
}

// expire takes every parked vote whose deadline is before now out of its
// node.
func (s *spec) expire(now time.Time) []parkedVote {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []parkedVote
	for _, n := range s.nodes {
		if len(n.askers) > 0 && n.deadline.Before(now) {
			out = append(out, parkedVote{rid: n.rid, askers: n.askers})
			n.askers = nil
		}
	}
	return out
}

// --- engine integration ------------------------------------------------------

// execSpec is the Exec body of a keyed operation or a cost-model sleep.
// Caller holds b.mu and has verified the branch is active. Each keyed step —
// join, read, write — is one critical section under spec.mu, so concurrent
// same-key Execs order themselves: no joiner lands between a step's read and
// its write.
func (e *Engine) execSpec(b *branch, op msg.Op) msg.OpResult {
	s := e.spec
	s.execs.Inc()
	switch op.Code {
	case msg.OpGet, msg.OpPut, msg.OpAdd, msg.OpCheckGE:
	case msg.OpSleep:
		// Simulated data-manipulation work (the cost model's "SQL" row).
		// spin.Sleep keeps scaled-down costs precise; cancellation is not
		// needed because the duration is bounded by the cost model.
		//etxlint:allow lockheld — models SQL row work; the branch is busy for the work's duration, which is the cost model
		spin.Sleep(time.Duration(op.Delta))
		return msg.OpResult{OK: true}
	default:
		return msg.OpResult{OK: false, Err: fmt.Sprintf("unknown op %d", op.Code)}
	}

	var res msg.OpResult
	var wrote []byte
	reason := ""
	s.mu.Lock()
	n, pos := s.join(b.rid, op.Key)
	switch {
	case n.cascade != "":
		reason = n.cascade // a read-from predecessor aborted: fail the try now, not at its vote
	case op.Code == msg.OpGet:
		res.Val = s.visible(n, pos, op.Key, e.store)
		res.Num = decodeNum(res.Val)
	case op.Code == msg.OpCheckGE:
		res.Num = decodeNum(s.visible(n, pos, op.Key, e.store))
		if res.Num < op.Delta {
			reason = fmt.Sprintf("check failed: %s=%d < %d", op.Key, res.Num, op.Delta)
		}
	case op.Code == msg.OpPut:
		wrote = slices.Clone(op.Val)
	case op.Code == msg.OpAdd:
		res.Num = decodeNum(s.visible(n, pos, op.Key, e.store)) + op.Delta
		wrote = kv.EncodeInt(res.Num)
	}
	if wrote != nil {
		reason = s.write(n, pos, op.Key, wrote)
	}
	s.mu.Unlock()

	if reason != "" {
		b.poisoned = true
		b.reason = reason
		res.OK, res.Err = false, reason
		return res
	}
	if wrote != nil {
		b.write(op.Key, wrote)
	}
	res.OK = true
	return res
}

// decodeNum is the integer interpretation of a stored value: 0 when absent
// or not an 8-byte integer.
func decodeNum(val []byte) int64 {
	if len(val) == 8 {
		if n, err := kv.DecodeInt(val); err == nil {
			return n
		}
	}
	return 0
}

// SnapRead answers the read-only fast path: key's last committed value,
// outside any branch, without locks. The data server calls it at a batch
// boundary so the snapshot reflects a fully-executed batch.
func (e *Engine) SnapRead(key string) msg.OpResult {
	val, _ := e.store.Get(key)
	return msg.OpResult{Val: val, Num: decodeNum(val), OK: true}
}

// Poison marks rid's branch to vote no, recording reason. Unknown or
// finished branches are left alone.
func (e *Engine) Poison(rid id.ResultID, reason string) {
	b, _, done := e.getBranch(rid, false)
	if done || b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.status == StatusActive && !b.poisoned {
		b.poisoned = true
		b.reason = reason
	}
}

// LockTimeout returns the engine's vote-gate bound.
func (e *Engine) LockTimeout() time.Duration { return e.cfg.LockTimeout }

// LockStats is always zero: the engine acquires no locks. It remains as the
// accessor the benchmark rig's lockmgr.* metrics read, which thereby assert
// the engine runs lock-free.
func (e *Engine) LockStats() lockmgr.Stats { return lockmgr.Stats{} }

// SpecStats snapshots the speculative executor's counters.
func (e *Engine) SpecStats() SpecStats { return e.spec.Stats() }

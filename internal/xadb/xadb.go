// Package xadb implements the database-server engine of the paper's model: a
// stateful, autonomous resource exposing the transaction-commitment subset of
// the XA interface — vote() (XA prepare) and decide() (XA commit/abort) — plus
// the data operations the business logic runs inside a transaction branch.
//
// The engine honours the paper's decide() contract exactly:
//
//	(a) if the input value is abort, the returned value is abort;
//	(b) if the server voted yes for the result and the input is commit, the
//	    returned value is commit.
//
// Durability model: a yes vote forces a Prepared record (with the branch's
// write-set) to the WAL, so in-doubt branches survive crashes and a later
// Decide(commit) is honoured across recoveries — the property the paper's
// "good database servers" assumption leans on. Commits force a Committed
// record; aborts are presumed (lazy record).
//
// Each recovery bumps a persisted incarnation number. Application servers pin
// the incarnation they first executed against and treat a mismatch as a
// broken database connection (the paper's Section 5 failure-detection scheme
// between the middle tier and the databases), ensuring a crash that loses
// unprepared work aborts the try instead of committing a hole.
package xadb

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/lockmgr"
	"etx/internal/msg"
	"etx/internal/spin"
	"etx/internal/stablestore"
	"etx/internal/wal"
)

// incarnationKey is the stablestore key holding the incarnation counter.
const incarnationKey = "xadb/incarnation"

// Config parameterizes an Engine.
type Config struct {
	// Self identifies the database server (used in errors only).
	Self id.NodeID
	// LockTimeout bounds each lock wait; expiry poisons the branch
	// (deadlock resolution by abort-and-retry). Defaults to 250ms. In queue
	// mode the same bound applies to vote-gate waits on undecided chain
	// predecessors.
	LockTimeout time.Duration
	// QueueExec switches the engine to queue-oriented deterministic
	// execution: operations run speculatively against per-key chains without
	// any lock-manager acquisition, and commitment is gated on chain
	// predecessors instead (see spec.go). The caller (the data server's
	// planner) must serialize same-key operations. Off — the default —
	// reproduces the paper-exact strict-2PL discipline.
	QueueExec bool
	// Replicate, when set, observes every write-ahead-log record immediately
	// after its append, under the same branch serialization as the append
	// itself — so for any two records whose order matters (a branch's
	// prepared record before its commit record, conflicting commits ordered
	// by lock or chain hand-over), the hook fires in log order, and the hook
	// returns before the effect the record describes can be voted or
	// acknowledged. The data-tier replication streamer hangs off this; nil —
	// the default — is the paper-exact single-server behaviour.
	Replicate func(rec wal.Record)
}

// BranchStatus is the lifecycle state of a transaction branch.
type BranchStatus uint8

// Branch states.
const (
	StatusActive BranchStatus = iota + 1
	StatusPrepared
	StatusCommitted
	StatusAborted
)

// String returns the status mnemonic.
func (s BranchStatus) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Engine is one database server's transactional core.
type Engine struct {
	cfg   Config
	st    *stablestore.Store
	log   *wal.Log
	store *kv.Store
	locks *lockmgr.Manager
	spec  *spec // speculative chains; nil unless Config.QueueExec
	inc   uint64

	// appendSeq numbers deferred (unforced) prepared/commit appends and
	// syncedSeq is the highest such append known durable: every vote/decide
	// entry point runs syncIfBehind before returning, so no vote or ack ever
	// leaves the server resting on an unsynced record — even when a
	// concurrent batch's status change is observed through a fast path, and
	// even when that batch's own sync is still in flight.
	appendSeq atomic.Int64
	syncedSeq atomic.Int64

	mu       sync.Mutex
	branches map[id.ResultID]*branch
	outcomes map[id.ResultID]msg.Outcome
}

type branch struct {
	mu       sync.Mutex
	rid      id.ResultID
	status   BranchStatus
	poisoned bool
	reason   string
	writes   []kv.Write
	wIdx     map[string]int // key -> index into writes (read-your-writes)
}

// Open starts an engine over st, running crash recovery: the store image is
// rebuilt from the WAL, in-doubt (prepared, undecided) branches are restored
// with their locks re-acquired, and the incarnation counter is bumped.
func Open(st *stablestore.Store, cfg Config) (*Engine, error) {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 250 * time.Millisecond
	}
	e := &Engine{
		cfg:      cfg,
		st:       st,
		log:      wal.New(st),
		store:    kv.New(),
		locks:    lockmgr.New(),
		branches: make(map[id.ResultID]*branch),
		outcomes: make(map[id.ResultID]msg.Outcome),
	}
	if cfg.QueueExec {
		e.spec = newSpec()
	}

	// Incarnation: read, bump, persist.
	if raw, ok := st.Get(incarnationKey); ok && len(raw) == 8 {
		e.inc = binary.BigEndian.Uint64(raw)
	}
	e.inc++
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], e.inc)
	st.Put(incarnationKey, buf[:])

	// Replay the WAL.
	rv, err := e.log.Scan()
	if err != nil {
		return nil, fmt.Errorf("xadb: recovery scan: %w", err)
	}
	e.store.Apply(rv.Image)
	for rid := range rv.Committed {
		e.outcomes[rid] = msg.OutcomeCommit
	}
	for rid := range rv.Aborted {
		e.outcomes[rid] = msg.OutcomeAbort
	}
	// In-doubt branches are restored in deterministic (sorted) order. Lock
	// mode re-acquires their locks; queue mode seeds their write-sets into
	// the speculative chains instead, so post-recovery accessors order
	// behind them and gate on their eventual decide.
	inDoubt := make([]id.ResultID, 0, len(rv.InDoubt))
	for rid := range rv.InDoubt {
		inDoubt = append(inDoubt, rid)
	}
	sort.Slice(inDoubt, func(i, j int) bool { return inDoubt[i].Less(inDoubt[j]) })
	for _, rid := range inDoubt {
		ws := rv.InDoubt[rid]
		b := &branch{rid: rid, status: StatusPrepared, writes: ws, wIdx: make(map[string]int, len(ws))}
		for i, w := range ws {
			b.wIdx[w.Key] = i
			if e.spec != nil {
				continue
			}
			// Locks are re-acquired on a fresh lock table: cannot block.
			if err := e.locks.Acquire(context.Background(), rid, w.Key, lockmgr.Exclusive); err != nil {
				return nil, fmt.Errorf("xadb: relock in-doubt branch %s: %w", rid, err)
			}
		}
		if e.spec != nil {
			e.spec.seed(rid, ws)
		}
		e.branches[rid] = b
	}
	return e, nil
}

// append writes rec to the WAL and hands it to the replication hook. Call
// sites hold the same locks the record's ordering constraints come from
// (b.mu for branch records), so the hook observes constrained records in log
// order; see Config.Replicate.
func (e *Engine) append(rec wal.Record, force bool) {
	e.log.Append(rec, force)
	if e.cfg.Replicate != nil {
		e.cfg.Replicate(rec)
	}
}

// Incarnation returns this engine's incarnation (1 on first boot, +1 per
// recovery).
func (e *Engine) Incarnation() uint64 { return e.inc }

// SetIncarnationFloor persists inc as a lower bound on the incarnation
// counter of st, if it exceeds the stored one. A backup applies the
// primary's incarnation (carried on every replicated record) through this,
// so the engine a promotion opens always runs under a strictly higher
// incarnation than any the old primary served — the application tier's
// incarnation pinning then aborts every try whose unprepared work the
// asynchronous stream may not have carried, exactly as it would across a
// single-server restart.
func SetIncarnationFloor(st *stablestore.Store, inc uint64) {
	if raw, ok := st.Get(incarnationKey); ok && len(raw) == 8 {
		if binary.BigEndian.Uint64(raw) >= inc {
			return
		}
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], inc)
	st.Put(incarnationKey, buf[:])
}

// Store exposes the live data image (read-only use: tests, seeding checks).
func (e *Engine) Store() *kv.Store { return e.store }

// StableStore exposes the underlying stable storage (metrics).
func (e *Engine) StableStore() *stablestore.Store { return e.st }

// Seed atomically installs initial data as a committed snapshot, bypassing
// transaction machinery (initial database population).
func (e *Engine) Seed(ws []kv.Write) {
	e.append(wal.Record{Type: wal.RecSnapshot, Writes: e.seedImage(ws)}, true)
	e.store.Apply(ws)
}

// seedImage merges the current image with ws so repeated seeding keeps the
// snapshot record self-contained.
func (e *Engine) seedImage(ws []kv.Write) []kv.Write {
	img := e.store.Snapshot()
	img = append(img, ws...)
	return img
}

// InDoubt returns the RIDs of branches that are prepared but undecided.
func (e *Engine) InDoubt() []id.ResultID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []id.ResultID
	for rid, b := range e.branches {
		b.mu.Lock()
		if b.status == StatusPrepared {
			out = append(out, rid)
		}
		b.mu.Unlock()
	}
	return out
}

// BranchStatus reports the state of a branch: recorded outcome first, then
// live branch state; ok is false for unknown branches.
func (e *Engine) BranchStatus(rid id.ResultID) (BranchStatus, bool) {
	e.mu.Lock()
	if o, ok := e.outcomes[rid]; ok {
		e.mu.Unlock()
		if o == msg.OutcomeCommit {
			return StatusCommitted, true
		}
		return StatusAborted, true
	}
	b, ok := e.branches[rid]
	e.mu.Unlock()
	if !ok {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.status, true
}

// getBranch returns the live branch for rid, creating it if create is set and
// no outcome has been recorded. The bool reports whether an outcome already
// exists (branch finished).
func (e *Engine) getBranch(rid id.ResultID, create bool) (*branch, msg.Outcome, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if o, done := e.outcomes[rid]; done {
		return nil, o, true
	}
	b, ok := e.branches[rid]
	if !ok && create {
		b = &branch{rid: rid, status: StatusActive, wIdx: make(map[string]int)}
		e.branches[rid] = b
	}
	return b, 0, false
}

// Exec runs one data operation inside the branch of rid, creating the branch
// on first use. Lock waits are bounded by Config.LockTimeout; a timeout
// poisons the branch so it will vote no.
func (e *Engine) Exec(ctx context.Context, rid id.ResultID, op msg.Op) msg.OpResult {
	if op.Code == msg.OpSnapRead {
		// Read-only fast path: the last committed value, answered without
		// locks and without creating (or enlisting) a branch — the try never
		// prepares this server for a snapshot read, so a branch here would
		// leak. Works identically in both execution modes.
		return e.SnapRead(op.Key)
	}
	b, outcome, done := e.getBranch(rid, true)
	if done {
		return msg.OpResult{OK: false, Err: fmt.Sprintf("branch already %s", outcome)}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.status {
	case StatusPrepared:
		return msg.OpResult{OK: false, Err: "branch already prepared"}
	case StatusCommitted, StatusAborted:
		return msg.OpResult{OK: false, Err: fmt.Sprintf("branch already %s", b.status)}
	}

	if e.spec != nil {
		// Queue mode: no lock manager. The status check above and the chain
		// bookkeeping both run under b.mu, so a racing vote either sees the
		// chain membership this exec records or this exec sees the prepared
		// status and refuses.
		return e.execSpec(b, op)
	}

	lockCtx, cancel := context.WithTimeout(ctx, e.cfg.LockTimeout)
	defer cancel()

	acquire := func(key string, mode lockmgr.Mode) bool {
		if err := e.locks.Acquire(lockCtx, rid, key, mode); err != nil {
			b.poisoned = true
			b.reason = err.Error()
			return false
		}
		return true
	}

	switch op.Code {
	case msg.OpGet:
		if !acquire(op.Key, lockmgr.Shared) {
			return msg.OpResult{OK: false, Err: b.reason}
		}
		val, num := b.read(e.store, op.Key)
		return msg.OpResult{Val: val, Num: num, OK: true}

	case msg.OpPut:
		if !acquire(op.Key, lockmgr.Exclusive) {
			return msg.OpResult{OK: false, Err: b.reason}
		}
		b.write(op.Key, op.Val)
		return msg.OpResult{OK: true}

	case msg.OpAdd:
		if !acquire(op.Key, lockmgr.Exclusive) {
			return msg.OpResult{OK: false, Err: b.reason}
		}
		_, cur := b.read(e.store, op.Key)
		next := cur + op.Delta
		b.write(op.Key, kv.EncodeInt(next))
		return msg.OpResult{Num: next, OK: true}

	case msg.OpCheckGE:
		if !acquire(op.Key, lockmgr.Shared) {
			return msg.OpResult{OK: false, Err: b.reason}
		}
		_, cur := b.read(e.store, op.Key)
		if cur < op.Delta {
			b.poisoned = true
			b.reason = fmt.Sprintf("check failed: %s=%d < %d", op.Key, cur, op.Delta)
			return msg.OpResult{Num: cur, OK: false, Err: b.reason}
		}
		return msg.OpResult{Num: cur, OK: true}

	case msg.OpSleep:
		// Simulated data-manipulation work (the cost model's "SQL" row).
		// spin.Sleep keeps scaled-down costs precise; cancellation is not
		// needed because the duration is bounded by the cost model.
		//etxlint:allow lockheld — models SQL row work under the branch's row locks; holding them for the work's duration is the cost model
		spin.Sleep(time.Duration(op.Delta))
		return msg.OpResult{OK: true}

	default:
		return msg.OpResult{OK: false, Err: fmt.Sprintf("unknown op %d", op.Code)}
	}
}

// read returns the branch-visible value of key: its own pending write if any,
// else the committed store value. num is the integer interpretation (0 when
// absent or non-integer).
func (b *branch) read(store *kv.Store, key string) (val []byte, num int64) {
	if i, ok := b.wIdx[key]; ok {
		val = b.writes[i].Val
	} else if v, ok := store.Get(key); ok {
		val = v
	}
	if len(val) == 8 {
		if n, err := kv.DecodeInt(val); err == nil {
			num = n
		}
	}
	return val, num
}

func (b *branch) write(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	if i, ok := b.wIdx[key]; ok {
		b.writes[i].Val = cp
		return
	}
	b.wIdx[key] = len(b.writes)
	b.writes = append(b.writes, kv.Write{Key: key, Val: cp})
}

// Vote implements the paper's vote() primitive (XA prepare). A yes vote
// forces the branch's write-set to the WAL first. Voting on an unknown
// branch prepares an empty branch and votes yes (this server was simply not
// touched by the try). Poisoned branches vote no and abort immediately. In
// queue mode the vote additionally waits for every chain predecessor to
// decide, bounded by Config.LockTimeout: expiry poisons the branch — the
// vote-gate analogue of a lock-wait timeout, resolving cross-shard
// chain-order inversions (distributed deadlock) by mutual abort — and the
// next pass votes no.
func (e *Engine) Vote(rid id.ResultID) msg.Vote {
	var expire <-chan time.Time
	for {
		v, ok, gate := e.vote(rid, false, false)
		if ok {
			e.syncIfBehind()
			return v
		}
		if expire == nil {
			t := time.NewTimer(e.cfg.LockTimeout)
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-gate:
		case <-expire:
			e.Poison(rid, "spec: vote gate timed out waiting for chain predecessors")
		}
	}
}

// syncIfBehind pays one (combined) device force iff some deferred record may
// still be unsynced. The target is read before the force: every append
// numbered up to it completed before the force started and is therefore
// covered; appends racing in later carry higher numbers and their own entry
// points sync them. syncedSeq only advances after a *completed* force, so an
// observer never skips on the strength of a sync still in flight.
func (e *Engine) syncIfBehind() {
	target := e.appendSeq.Load()
	if e.syncedSeq.Load() >= target {
		return
	}
	e.st.Sync()
	for {
		old := e.syncedSeq.Load()
		if old >= target || e.syncedSeq.CompareAndSwap(old, target) {
			return
		}
	}
}

// vote is the shared Vote implementation. With deferSync a newly prepared
// record is appended unforced and numbered; the caller must run
// syncIfBehind before releasing any vote. With tryLock a branch whose mutex
// is busy (typically an Exec waiting out a data-lock acquisition) is not
// waited for: the call returns ok=false with a nil gate and the caller
// retries later. In queue mode a branch whose chain predecessors are still
// undecided returns ok=false with a non-nil gate channel: the caller waits
// on it (it is closed at the next predecessor decide) and re-votes.
func (e *Engine) vote(rid id.ResultID, deferSync, tryLock bool) (msg.Vote, bool, <-chan struct{}) {
	b, outcome, done := e.getBranch(rid, true)
	if done {
		if outcome == msg.OutcomeCommit {
			return msg.VoteYes, true, nil
		}
		return msg.VoteNo, true, nil
	}
	if tryLock {
		if !b.mu.TryLock() {
			return 0, false, nil
		}
	} else {
		b.mu.Lock()
	}
	defer b.mu.Unlock()
	switch b.status {
	case StatusPrepared, StatusCommitted:
		return msg.VoteYes, true, nil
	case StatusAborted:
		return msg.VoteNo, true, nil
	}
	if b.poisoned {
		e.abortLocked(b)
		return msg.VoteNo, true, nil
	}
	if e.spec != nil {
		// The vote gate: yes only once every chain predecessor has decided,
		// so decide order extends chain order and an aborted predecessor's
		// speculative values never reach the store through a successor.
		gate, ready, cascade := e.spec.gate(rid)
		if cascade != "" {
			b.poisoned = true
			b.reason = cascade
			e.abortLocked(b)
			return msg.VoteNo, true, nil
		}
		if !ready {
			return 0, false, gate
		}
	}
	e.append(wal.Record{Type: wal.RecPrepared, RID: rid, Writes: b.writes}, !deferSync)
	if deferSync {
		// Numbered inside b.mu, before the status flips: anyone who can
		// observe the prepared status observes the pending append too.
		e.appendSeq.Add(1)
	}
	b.status = StatusPrepared
	return msg.VoteYes, true, nil
}

// Decide implements the paper's decide() primitive. It is idempotent: a
// branch already decided returns its recorded outcome. Decide(commit) on a
// branch that never voted yes returns abort, which the decide() contract
// permits and safety requires.
func (e *Engine) Decide(rid id.ResultID, outcome msg.Outcome) msg.Outcome {
	o, _ := e.decide(rid, outcome, false, false)
	e.syncIfBehind()
	return o
}

// DecideReq is one decide of a drain: the requested outcome for one branch.
type DecideReq struct {
	RID id.ResultID
	O   msg.Outcome
}

// DecideAndVoteBatchSpec is the data server's drain entry point, the batched
// form of Decide and Vote: it serves one mailbox drain in a single durability
// unit — the decides first (so an abort releases locks a vote in the same
// drain may be queued behind), then the votes, every record appended
// unforced and one shared device force covering them all, so a mixed drain
// pays one fsync, not one per record. No outcome or vote may leave the
// server before the call returns. Outcomes become visible to concurrent
// readers before the shared force completes, which is safe because the log
// is totally ordered — any later force covers these records, and every entry
// point syncs-if-behind before returning.
//
// Each group runs a try-lock pass first: a branch whose mutex is busy —
// typically an Exec holding it while it waits out a data-lock acquisition —
// is deferred to a blocking second pass instead of stalling the whole batch
// behind it. The per-message-goroutine property this preserves: a
// Decide(abort) later in the drain that would release the contended lock is
// served before anything waits on the Exec-held branch.
//
// Queue-mode votes gated on undecided chain predecessors are returned as
// indices into votes (gated) instead of being waited for inline, so one
// gated vote cannot stall the whole drain's replies. Gated entries of the
// vote slice are zero and must not be sent; the caller resolves each with a
// later Vote call (which waits out the gate and syncs itself). In lock mode
// gated is always empty.
func (e *Engine) DecideAndVoteBatchSpec(decides []DecideReq, votes []id.ResultID) (outs []msg.Outcome, vs []msg.Vote, gated []int) {
	outs = make([]msg.Outcome, len(decides))
	vs = make([]msg.Vote, len(votes))
	var retryD, retryV []int
	for i, req := range decides {
		if o, ok := e.decide(req.RID, req.O, true, true); ok {
			outs[i] = o
		} else {
			retryD = append(retryD, i)
		}
	}
	for i, rid := range votes {
		v, ok, gate := e.vote(rid, true, true)
		switch {
		case ok:
			vs[i] = v
		case gate != nil:
			gated = append(gated, i)
		default:
			retryV = append(retryV, i)
		}
	}
	for _, i := range retryD {
		outs[i], _ = e.decide(decides[i].RID, decides[i].O, true, false)
	}
	for _, i := range retryV {
		v, ok, gate := e.vote(votes[i], true, false)
		if ok {
			vs[i] = v
		} else if gate != nil {
			gated = append(gated, i)
		}
	}
	e.syncIfBehind()
	return outs, vs, gated
}

// decide is the shared Decide implementation. With deferSync commit records
// are appended unforced and numbered; the caller must run syncIfBehind
// before acknowledging any outcome. With tryLock a busy branch mutex makes
// the call return ok=false for the caller to retry (see
// DecideAndVoteBatchSpec).
func (e *Engine) decide(rid id.ResultID, outcome msg.Outcome, deferSync, tryLock bool) (msg.Outcome, bool) {
	b, prev, done := e.getBranch(rid, false)
	if done {
		return prev, true
	}
	if b == nil {
		// Unknown branch. Abort is trivially recordable; commit of a branch
		// this server never prepared applies nothing (the protocol's
		// incarnation checks ensure no data was lost). The record is
		// appended and numbered before the outcome becomes readable, so a
		// concurrent decide observing it syncs first.
		if outcome == msg.OutcomeAbort {
			e.append(wal.Record{Type: wal.RecAborted, RID: rid}, false)
			e.recordOutcome(rid, outcome)
			return outcome, true
		}
		e.append(wal.Record{Type: wal.RecCommitted, RID: rid}, !deferSync)
		if deferSync {
			e.appendSeq.Add(1)
		}
		e.recordOutcome(rid, outcome)
		return outcome, true
	}
	if tryLock {
		if !b.mu.TryLock() {
			return 0, false
		}
	} else {
		b.mu.Lock()
	}
	defer b.mu.Unlock()
	switch b.status {
	case StatusCommitted:
		return msg.OutcomeCommit, true
	case StatusAborted:
		return msg.OutcomeAbort, true
	}
	if outcome == msg.OutcomeAbort || b.status != StatusPrepared {
		// (a) abort in -> abort out; also commit of an unprepared branch
		// degrades to abort (no yes vote was ever given).
		e.abortLocked(b)
		return msg.OutcomeAbort, true
	}
	// Prepared + commit: record the commit, apply the write-set. The append
	// is numbered inside b.mu before the status flips and the branch
	// finishes, so any observer of the committed state syncs before acking.
	e.append(wal.Record{Type: wal.RecCommitted, RID: rid}, !deferSync)
	if deferSync {
		e.appendSeq.Add(1)
	}
	e.store.Apply(b.writes)
	b.status = StatusCommitted
	e.locks.ReleaseAll(rid)
	e.finishBranch(b, msg.OutcomeCommit)
	return msg.OutcomeCommit, true
}

// CommitDirect is single-phase commit for the unreliable baseline protocol
// (Figure 7a): no vote, no prepared record — just apply and force the commit
// record, like auto-commit against a single database. Poisoned branches
// abort. Like every other entry point it syncs-if-behind, so a fast-path hit
// on a concurrently batched outcome never acks an unsynced record.
func (e *Engine) CommitDirect(rid id.ResultID) msg.Outcome {
	defer e.syncIfBehind()
	b, prev, done := e.getBranch(rid, false)
	if done {
		return prev
	}
	if b == nil {
		e.recordOutcome(rid, msg.OutcomeCommit)
		e.append(wal.Record{Type: wal.RecCommitted, RID: rid}, true)
		return msg.OutcomeCommit
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned || b.status != StatusActive {
		e.abortLocked(b)
		return msg.OutcomeAbort
	}
	// Single-phase: the write-set rides inside a prepared+committed pair so
	// recovery replays it.
	e.append(wal.Record{Type: wal.RecPrepared, RID: rid, Writes: b.writes}, false)
	e.append(wal.Record{Type: wal.RecCommitted, RID: rid}, true)
	e.store.Apply(b.writes)
	b.status = StatusCommitted
	e.locks.ReleaseAll(rid)
	e.finishBranch(b, msg.OutcomeCommit)
	return msg.OutcomeCommit
}

// abortLocked finishes b as aborted: locks released, lazy abort record.
// Caller holds b.mu.
func (e *Engine) abortLocked(b *branch) {
	b.status = StatusAborted
	e.append(wal.Record{Type: wal.RecAborted, RID: b.rid}, false)
	e.locks.ReleaseAll(b.rid)
	e.finishBranch(b, msg.OutcomeAbort)
}

// finishBranch records the outcome and drops the live branch. Caller holds
// b.mu. In queue mode the branch leaves its chains here, releasing (or, on
// abort, cascading into) its successors' vote gates.
func (e *Engine) finishBranch(b *branch, o msg.Outcome) {
	if e.spec != nil {
		e.spec.finish(b.rid, o == msg.OutcomeAbort)
	}
	e.mu.Lock()
	e.outcomes[b.rid] = o
	delete(e.branches, b.rid)
	e.mu.Unlock()
}

func (e *Engine) recordOutcome(rid id.ResultID, o msg.Outcome) {
	e.mu.Lock()
	e.outcomes[rid] = o
	e.mu.Unlock()
}

// Outcomes returns a snapshot of every decided branch and its outcome
// (correctness oracles: properties A.2 and A.3 are asserted over these).
func (e *Engine) Outcomes() map[id.ResultID]msg.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[id.ResultID]msg.Outcome, len(e.outcomes))
	for rid, o := range e.outcomes {
		out[rid] = o
	}
	return out
}

// AbortActiveBranches aborts every active (unprepared) branch, releasing its
// locks, and returns how many it aborted. The protocol itself aborts stale
// tries through the cleaning thread; this is a safety net used by tests.
func (e *Engine) AbortActiveBranches() int {
	e.mu.Lock()
	var stale []*branch
	for _, b := range e.branches {
		stale = append(stale, b)
	}
	e.mu.Unlock()
	n := 0
	for _, b := range stale {
		b.mu.Lock()
		if b.status == StatusActive {
			e.abortLocked(b)
			n++
		}
		b.mu.Unlock()
	}
	return n
}

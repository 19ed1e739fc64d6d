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
// Execution is queue-oriented and speculative (spec.go): no operation takes
// a lock. Same-key operations order themselves on per-key chains, reading
// their predecessors' pending values, and commitment is gated instead — a
// branch votes yes only once every chain predecessor has decided.
//
// Durability model: a yes vote makes a Prepared record (with the branch's
// write-set) durable in the WAL before it leaves, so in-doubt branches
// survive crashes and a later Decide(commit) is honoured across recoveries —
// the property the paper's "good database servers" assumption leans on.
// Commits make a Committed record durable; aborts are presumed (lazy
// record). The single-call entry points (Vote, Decide, ExpireParked) force
// their own records; the data server's drain entry point appends unforced
// and leaves the one device force that covers the drain to its caller. An
// answer read off a record some other call appended unforced (a repeated
// vote on a branch a drain just prepared) is durable only once that
// record's force completes, which is why the data server holds such answers
// behind any force in flight.
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
	"time"

	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/wal"
)

// incarnationKey is the stablestore key holding the incarnation counter.
const incarnationKey = "xadb/incarnation"

// Config parameterizes an Engine.
type Config struct {
	// Self identifies the database server (used in errors only).
	Self id.NodeID
	// LockTimeout bounds a vote's wait for its undecided chain
	// predecessors; expiry poisons the branch, which votes no (deadlock
	// resolution by abort-and-retry). Defaults to 250ms.
	LockTimeout time.Duration
	// Replicate, when set, observes every write-ahead-log record immediately
	// after its append, under the same branch serialization as the append
	// itself — so for any two records whose order matters (a branch's
	// prepared record before its commit record, conflicting commits ordered
	// by chain hand-over), the hook fires in log order, and the hook
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
	spec  *spec // speculative per-key chains and parked votes
	inc   uint64

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
// into the chains of the keys they wrote, and the incarnation counter is
// bumped.
func Open(st *stablestore.Store, cfg Config) (*Engine, error) {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 250 * time.Millisecond
	}
	e := &Engine{
		cfg:      cfg,
		st:       st,
		log:      wal.New(st),
		store:    kv.New(),
		spec:     newSpec(cfg.LockTimeout),
		branches: make(map[id.ResultID]*branch),
		outcomes: make(map[id.ResultID]msg.Outcome),
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
	// In-doubt branches are restored in deterministic (sorted) order, their
	// write-sets seeded into the chains, so post-recovery accessors order
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
		}
		e.spec.seed(rid, ws)
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

// appendDurable appends a record that must be durable before any answer
// resting on it leaves the server: forced when dirty is nil (a single-call
// entry point), else unforced with *dirty set, and the caller forces it.
func (e *Engine) appendDurable(rec wal.Record, dirty *bool) {
	e.append(rec, dirty == nil)
	if dirty != nil {
		*dirty = true
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
// on first use. It never waits on another branch — ctx is unused — and a
// conflict shows up at vote time instead, as a closed gate or as a poisoned
// branch that votes no.
func (e *Engine) Exec(ctx context.Context, rid id.ResultID, op msg.Op) msg.OpResult {
	if op.Code == msg.OpSnapRead {
		// Read-only fast path: the last committed value, answered without
		// creating (or enlisting) a branch — the try never prepares this
		// server for a snapshot read, so a branch here would leak.
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
	// The status check above and the chain step both run under b.mu, so a
	// racing vote either sees the chain membership this exec records or
	// this exec sees the prepared status and refuses.
	return e.execSpec(b, op)
}

// write records the branch's pending write of key; val is not copied and
// must not be modified afterwards.
func (b *branch) write(key string, val []byte) {
	if i, ok := b.wIdx[key]; ok {
		b.writes[i].Val = val
		return
	}
	b.wIdx[key] = len(b.writes)
	b.writes = append(b.writes, kv.Write{Key: key, Val: val})
}

// Vote implements the paper's vote() primitive (XA prepare) for a caller
// that waits for the answer. A yes vote forces the branch's write-set to the
// WAL first. Voting on an unknown branch prepares an empty branch and votes
// yes (this server was simply not touched by the try). Poisoned branches
// vote no and abort immediately. The vote waits for every chain predecessor
// to decide, bounded by Config.LockTimeout: expiry poisons the branch and
// the next pass votes no.
func (e *Engine) Vote(rid id.ResultID) msg.Vote {
	var expire <-chan time.Time
	for {
		v, gate := e.vote(rid, nil, nil)
		if gate == nil {
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
			e.Poison(rid, gateTimeout)
		}
	}
}

// gateTimeout is the poison reason of a vote whose gate stayed closed for
// Config.LockTimeout.
const gateTimeout = "spec: vote gate timed out waiting for chain predecessors"

// vote is the shared Vote implementation. It returns the vote, or the zero
// Vote and a non-nil channel while the branch's chain gate is closed. With
// askers the closed gate parks the vote instead — the askers are recorded in
// the chain node and the call returns the zero Vote and a nil channel; the
// vote is answered when it is released (voteReleased) or expires
// (ExpireParked). Without askers the channel is closed when the gate opens
// and the caller re-votes. A newly prepared record goes through
// appendDurable with dirty.
func (e *Engine) vote(rid id.ResultID, dirty *bool, askers []id.NodeID) (msg.Vote, <-chan struct{}) {
	b, outcome, done := e.getBranch(rid, true)
	if done {
		if outcome == msg.OutcomeCommit {
			return msg.VoteYes, nil
		}
		return msg.VoteNo, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.status {
	case StatusPrepared, StatusCommitted:
		return msg.VoteYes, nil
	case StatusAborted:
		return msg.VoteNo, nil
	}
	if b.poisoned {
		e.abortLocked(b)
		return msg.VoteNo, nil
	}
	// The vote gate: yes only once every chain predecessor has decided, so
	// decide order extends chain order and an aborted predecessor's
	// speculative values never reach the store through a successor.
	gate, ready, cascade := e.spec.gate(rid, askers)
	if cascade != "" {
		b.poisoned = true
		b.reason = cascade
		e.abortLocked(b)
		return msg.VoteNo, nil
	}
	if !ready {
		return 0, gate
	}
	e.appendDurable(wal.Record{Type: wal.RecPrepared, RID: rid, Writes: b.writes}, dirty)
	b.status = StatusPrepared
	return msg.VoteYes, nil
}

// Decide implements the paper's decide() primitive. It is idempotent: a
// branch already decided returns its recorded outcome. Decide(commit) on a
// branch that never voted yes returns abort, which the decide() contract
// permits and safety requires.
func (e *Engine) Decide(rid id.ResultID, outcome msg.Outcome) msg.Outcome {
	return e.decide(rid, outcome, nil)
}

// DecideReq is one decide of a drain: the requested outcome for one branch.
type DecideReq struct {
	RID id.ResultID
	O   msg.Outcome
	// OnePhase makes the decide a single-phase commit (the unreliable
	// baseline's Commit1P, Figure 7a): the branch votes and decides in this
	// one step, and O is ignored.
	OnePhase bool
}

// VoteReq is one vote of a drain: the branch and the node asking for it.
type VoteReq struct {
	RID  id.ResultID
	From id.NodeID
}

// VoteReply is a vote to send: the branch, the node that asked, the vote.
type VoteReply struct {
	RID id.ResultID
	To  id.NodeID
	V   msg.Vote
}

// DecideAndVoteBatchSpec is the data server's drain entry point, the batched
// form of Decide and Vote: it serves one mailbox drain with every record
// appended unforced, so one device force can cover them all. dirty reports
// whether it appended a record that must be durable before any of outs or
// replies leaves the server; the caller then pays that force (one Sync,
// shared with every drain whose answers it still holds) before sending.
// Outcomes become visible to concurrent readers before the force completes,
// which is safe because the log is totally ordered and the caller holds
// every answer of a later drain behind the same force.
//
// The decides run first: each one that opens a successor's vote gate
// releases the vote parked there, and the drain answers the released votes
// after its own, under the same force — so a hot key's successor is voted
// by the drain that decided its predecessor, at no fsync of its own. A vote
// of this drain whose gate is still closed is parked (and counted in
// SpecStats.Deferred), not returned: a later drain or ExpireParked answers
// it. replies holds every vote this call answered, for this drain's
// requests and for the released ones alike.
func (e *Engine) DecideAndVoteBatchSpec(decides []DecideReq, votes []VoteReq) (outs []msg.Outcome, replies []VoteReply, dirty bool) {
	outs = make([]msg.Outcome, len(decides))
	for i, req := range decides {
		if req.OnePhase {
			outs[i] = e.commitDirect(req.RID, &dirty)
		} else {
			outs[i] = e.decide(req.RID, req.O, &dirty)
		}
	}
	replies = make([]VoteReply, 0, len(votes))
	for _, req := range votes {
		if v, _ := e.vote(req.RID, &dirty, []id.NodeID{req.From}); v != 0 {
			replies = append(replies, VoteReply{RID: req.RID, To: req.From, V: v})
		}
	}
	return outs, e.voteReleased(replies, &dirty), dirty
}

// voteReleased answers every released parked vote, appending the replies to
// out. A vote that aborts (a cascade) can release further votes, so it runs
// until the released list is empty.
func (e *Engine) voteReleased(out []VoteReply, dirty *bool) []VoteReply {
	for {
		rel := e.spec.takeReleased()
		if len(rel) == 0 {
			return out
		}
		for _, p := range rel {
			out = e.answer(p, out, dirty)
		}
	}
}

// answer votes one parked vote and appends a reply per asker; a vote whose
// gate closed again parks anew.
func (e *Engine) answer(p parkedVote, out []VoteReply, dirty *bool) []VoteReply {
	v, _ := e.vote(p.rid, dirty, p.askers)
	if v == 0 {
		return out
	}
	for _, to := range p.askers {
		out = append(out, VoteReply{RID: p.rid, To: to, V: v})
	}
	return out
}

// ExpireParked is the parked votes' timeout sweep: every vote parked longer
// than Config.LockTimeout poisons its branch and is answered no, and every
// released vote is answered too — those the aborts release, and any a
// blocking Decide released. The data server calls it on a tick of its loop,
// so a parked vote's answer comes within LockTimeout plus one tick; the
// replies are durable when it returns, under one force paid only when a
// reply prepared a branch.
func (e *Engine) ExpireParked() []VoteReply {
	var out []VoteReply
	var dirty bool
	for _, p := range e.spec.expire(time.Now()) {
		e.Poison(p.rid, gateTimeout)
		out = e.answer(p, out, &dirty)
	}
	out = e.voteReleased(out, &dirty)
	if dirty {
		e.st.Sync()
	}
	return out
}

// decide is the shared Decide implementation. A commit record goes through
// appendDurable with dirty.
func (e *Engine) decide(rid id.ResultID, outcome msg.Outcome, dirty *bool) msg.Outcome {
	b, prev, done := e.getBranch(rid, false)
	if done {
		return prev
	}
	if b == nil {
		// Unknown branch. Abort is trivially recordable; commit of a branch
		// this server never prepared applies nothing (the protocol's
		// incarnation checks ensure no data was lost).
		if outcome == msg.OutcomeAbort {
			e.append(wal.Record{Type: wal.RecAborted, RID: rid}, false)
			e.recordOutcome(rid, outcome)
			return outcome
		}
		e.appendDurable(wal.Record{Type: wal.RecCommitted, RID: rid}, dirty)
		e.recordOutcome(rid, outcome)
		return outcome
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.status {
	case StatusCommitted:
		return msg.OutcomeCommit
	case StatusAborted:
		return msg.OutcomeAbort
	}
	if outcome == msg.OutcomeAbort || b.status != StatusPrepared {
		// (a) abort in -> abort out; also commit of an unprepared branch
		// degrades to abort (no yes vote was ever given).
		e.abortLocked(b)
		return msg.OutcomeAbort
	}
	// Prepared + commit: record the commit, apply the write-set.
	e.appendDurable(wal.Record{Type: wal.RecCommitted, RID: rid}, dirty)
	e.store.Apply(b.writes)
	b.status = StatusCommitted
	e.finishBranch(b, msg.OutcomeCommit)
	return msg.OutcomeCommit
}

// commitDirect is single-phase commit for the unreliable baseline protocol
// (Figure 7a), run as a drain's DecideReq with OnePhase set: vote and
// decide in one step, like auto-commit against a single database, the two
// records appended through dirty. The vote gate still holds: a branch that
// read a chain predecessor's pending value cannot wait for that
// predecessor's outcome here, so a closed gate aborts the branch —
// single-phase commit may abort. Poisoned branches abort too.
func (e *Engine) commitDirect(rid id.ResultID, dirty *bool) msg.Outcome {
	v, gate := e.vote(rid, dirty, nil)
	switch {
	case gate != nil:
		return e.decide(rid, msg.OutcomeAbort, dirty)
	case v != msg.VoteYes:
		return msg.OutcomeAbort
	}
	return e.decide(rid, msg.OutcomeCommit, dirty)
}

// abortLocked finishes b as aborted with a lazy abort record. Caller holds
// b.mu.
func (e *Engine) abortLocked(b *branch) {
	b.status = StatusAborted
	e.append(wal.Record{Type: wal.RecAborted, RID: b.rid}, false)
	e.finishBranch(b, msg.OutcomeAbort)
}

// finishBranch records the outcome and drops the live branch. Caller holds
// b.mu. The branch leaves its chains here, releasing (or, on abort,
// cascading into) its successors' vote gates.
func (e *Engine) finishBranch(b *branch, o msg.Outcome) {
	e.spec.finish(b.rid, o == msg.OutcomeAbort)
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

// AbortActiveBranches aborts every active (unprepared) branch, opening its
// successors' vote gates, and returns how many it aborted. The protocol
// itself aborts stale tries through the cleaning thread; this is a safety
// net used by tests.
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

// Package baseline holds what the paper's evaluation (Appendix 3, Figure 7)
// compares the e-Transaction protocol against. Two of the three protocols
// are points of core.AppServer, alone, which differ from the replicated
// protocol only in where a try's regA and regD are written:
//
//	(a) the unreliable baseline, with core.NoLog: nothing is written and each
//	    try commits in one phase (msg.Commit1P), with no guarantees at all;
//	(b) presumed-nothing two-phase commit, with a TwoPCLog forcing a start
//	    and an outcome record: at-most-once, blocking on coordinator failure.
//
// This package holds that log, OneShotClient (the at-most-once client of
// both), and the third protocol, on serverBase below:
//
//	(c) a primary-backup e-Transaction scheme (from the authors' tech report
//	    [18]), correct only under a perfect failure detector, which is the
//	    paper's argument for its asynchronous replication scheme.
//
// All of them reuse the same database tier (core.DataServer over xadb) and
// the same business-logic shape as the replicated protocol, so latency
// comparisons isolate exactly the reliability machinery, as in Figure 8.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// Tx is the data-access handle primary-backup logic computes through; it
// mirrors core.Tx so workloads can be written once against a common
// interface.
type Tx struct {
	base *serverBase
	rid  id.ResultID
}

// RID returns the try this transaction belongs to.
func (t *Tx) RID() id.ResultID { return t.rid }

// DBs returns the database servers of the deployment.
func (t *Tx) DBs() []id.NodeID { return t.base.dbs }

// Exec runs one data operation on db inside this try's branch.
func (t *Tx) Exec(ctx context.Context, db id.NodeID, op msg.Op) (msg.OpResult, error) {
	return t.base.exec(ctx, t.rid, db, op)
}

// Logic is the business logic run by primary-backup servers.
type Logic interface {
	Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error)
}

// LogicFunc adapts a function to Logic.
type LogicFunc func(ctx context.Context, tx *Tx, req []byte) ([]byte, error)

// Compute implements Logic.
func (f LogicFunc) Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
	return f(ctx, tx, req)
}

type voteEvent struct {
	from id.NodeID
	v    msg.Vote
}

// serverBase carries the primary-backup server's plumbing: the endpoint,
// the database list, reply correlation and the standard phases.
type serverBase struct {
	self   id.NodeID
	dbs    []id.NodeID
	ep     transport.Endpoint
	resend time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	execID atomic.Uint64

	mu    sync.Mutex
	execs map[uint64]chan msg.ExecReply
	votes map[id.ResultID]chan voteEvent
	acks  map[id.ResultID]chan id.NodeID
}

func newServerBase(self id.NodeID, dbs []id.NodeID, ep transport.Endpoint, resend time.Duration) *serverBase {
	if resend <= 0 {
		resend = 100 * time.Millisecond
	}
	b := &serverBase{
		self:   self,
		dbs:    dbs,
		ep:     ep,
		resend: resend,
		execs:  make(map[uint64]chan msg.ExecReply),
		votes:  make(map[id.ResultID]chan voteEvent),
		acks:   make(map[id.ResultID]chan id.NodeID),
	}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	return b
}

func (b *serverBase) stop() {
	b.cancel()
	b.wg.Wait()
}

// route dispatches database replies to waiting phases; it returns false for
// payloads the base does not handle (server-specific traffic).
func (b *serverBase) route(env msg.Envelope) bool {
	//etxlint:allow kindswitch — partial by contract: route returns false for kinds the base does not handle, and the server's demux owns the rest
	switch m := env.Payload.(type) {
	case msg.ExecReply:
		b.mu.Lock()
		ch, ok := b.execs[m.CallID]
		b.mu.Unlock()
		if ok {
			select {
			case ch <- m:
			default:
			}
		}
	case msg.VoteMsg:
		b.mu.Lock()
		ch, ok := b.votes[m.RID]
		b.mu.Unlock()
		if ok {
			select {
			case ch <- voteEvent{from: env.From, v: m.V}:
			default:
			}
		}
	case msg.AckDecide:
		b.mu.Lock()
		ch, ok := b.acks[m.RID]
		b.mu.Unlock()
		if ok {
			select {
			case ch <- env.From:
			default:
			}
		}
	default:
		return false
	}
	return true
}

// exec performs one data operation with reply correlation.
func (b *serverBase) exec(ctx context.Context, rid id.ResultID, db id.NodeID, op msg.Op) (msg.OpResult, error) {
	callID := b.execID.Add(1)
	ch := make(chan msg.ExecReply, 2)
	b.mu.Lock()
	b.execs[callID] = ch
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.execs, callID)
		b.mu.Unlock()
	}()
	if err := b.ep.Send(msg.Envelope{To: db, Payload: msg.Exec{RID: rid, CallID: callID, Op: op}}); err != nil {
		return msg.OpResult{}, fmt.Errorf("baseline: exec: %w", err)
	}
	select {
	case rep := <-ch:
		return rep.Rep, nil
	case <-ctx.Done():
		return msg.OpResult{}, ctx.Err()
	case <-b.ctx.Done():
		return msg.OpResult{}, errors.New("baseline: server stopping")
	}
}

// votePhase runs the 2PC voting round: Prepare to every database, wait for
// every vote, commit only on unanimous yes. Blocking with retransmission —
// baselines have no Ready machinery; a crashed database stalls them (the
// paper's point about 2PC being blocking).
func (b *serverBase) votePhase(rid id.ResultID) msg.Outcome {
	ch := make(chan voteEvent, 4*len(b.dbs))
	b.mu.Lock()
	b.votes[rid] = ch
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.votes, rid)
		b.mu.Unlock()
	}()

	got := make(map[id.NodeID]msg.Vote, len(b.dbs))
	send := func() {
		for _, db := range b.dbs {
			if _, ok := got[db]; !ok {
				_ = b.ep.Send(msg.Envelope{To: db, Payload: msg.Prepare{RID: rid}})
			}
		}
	}
	send()
	ticker := time.NewTicker(b.resend)
	defer ticker.Stop()
	for len(got) < len(b.dbs) {
		select {
		case ev := <-ch:
			if _, dup := got[ev.from]; !dup {
				got[ev.from] = ev.v
			}
		case <-ticker.C:
			send()
		case <-b.ctx.Done():
			return msg.OutcomeAbort
		}
	}
	for _, v := range got {
		if v != msg.VoteYes {
			return msg.OutcomeAbort
		}
	}
	return msg.OutcomeCommit
}

// decidePhase drives an outcome to every database until all acknowledge.
func (b *serverBase) decidePhase(rid id.ResultID, o msg.Outcome) {
	ch := make(chan id.NodeID, 4*len(b.dbs))
	b.mu.Lock()
	b.acks[rid] = ch
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.acks, rid)
		b.mu.Unlock()
	}()

	acked := make(map[id.NodeID]bool, len(b.dbs))
	send := func() {
		for _, db := range b.dbs {
			if !acked[db] {
				_ = b.ep.Send(msg.Envelope{To: db, Payload: msg.Decide{RID: rid, O: o}})
			}
		}
	}
	send()
	ticker := time.NewTicker(b.resend)
	defer ticker.Stop()
	for len(acked) < len(b.dbs) {
		select {
		case from := <-ch:
			acked[from] = true
		case <-ticker.C:
			send()
		case <-b.ctx.Done():
			return
		}
	}
}

func crashIf(h *core.Hooks, p core.CrashPoint, rid id.ResultID) {
	if h != nil && h.Crash != nil {
		h.Crash(p, rid)
	}
}

// OneShotClient sends one request to one server and waits for the result:
// the client side of the unreliable and 2PC protocols. There is no retry —
// at-most-once is all these protocols offer, and on timeout the caller
// cannot know what happened (the paper's motivating problem).
type OneShotClient struct {
	self   id.NodeID
	server id.NodeID
	ep     transport.Endpoint
	seq    uint64
}

// NewOneShotClient creates a client talking to one application server.
func NewOneShotClient(self, server id.NodeID, ep transport.Endpoint) *OneShotClient {
	return &OneShotClient{self: self, server: server, ep: ep}
}

// ErrOutcomeUnknown is returned when the call times out: the request may or
// may not have executed.
var ErrOutcomeUnknown = errors.New("baseline: outcome unknown (timeout)")

// Call issues one request and returns the decision. A context expiry maps to
// ErrOutcomeUnknown.
func (c *OneShotClient) Call(ctx context.Context, request []byte) (msg.Decision, error) {
	c.seq++
	rid := id.ResultID{Client: c.self, Seq: c.seq, Try: 1}
	if err := c.ep.Send(msg.Envelope{To: c.server, Payload: msg.Request{RID: rid, Body: request}}); err != nil {
		return msg.Decision{}, err
	}
	for {
		select {
		case env, ok := <-c.ep.Recv():
			if !ok {
				return msg.Decision{}, errors.New("baseline: client endpoint closed")
			}
			if res, ok := env.Payload.(msg.Result); ok && res.RID == rid {
				return res.Dec, nil
			}
		case <-ctx.Done():
			return msg.Decision{}, ErrOutcomeUnknown
		}
	}
}

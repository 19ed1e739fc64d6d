package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/queue"
	"etx/internal/repl"
	"etx/internal/transport"
	"etx/internal/xadb"
)

// execWorkers sizes the pool serving business-data operations. Execs run off
// the serve loop because one blocked on a lock must not delay the
// Decide(abort) that would release it; a fixed pool keeps that isolation
// without spawning a goroutine per operation on the hot path (worst case a
// pool's worth of lock-waiters delays further Execs, never votes or
// decides). In queue mode the pool serves only keyless operations; keyed
// ones run on per-key runners.
const execWorkers = 64

// DataServerConfig parameterizes a database-server process.
type DataServerConfig struct {
	// Self identifies the server.
	Self id.NodeID
	// AppServers is the middle tier (recipients of Ready notifications).
	AppServers []id.NodeID
	// Engine is the opened transactional engine (recovery already ran in
	// xadb.Open).
	Engine *xadb.Engine
	// Endpoint is the server's network attachment.
	Endpoint transport.Endpoint
	// Recovery distinguishes a recovery start from the initial start, like
	// the recovery parameter of Figure 3: when true the server announces
	// [Ready] to all application servers.
	Recovery bool
	// MaxBatch caps how many queued messages one drain of the mailbox serves
	// as a group: the Prepares and Decides of a drained batch share one
	// forced log write through the engine's batched entry points, and their
	// votes/acks travel back in one Batch envelope per application server.
	// Values <= 1 (the default) serve every message individually — the
	// pre-group-commit behaviour.
	MaxBatch int
	// QueueExec switches the server to queue-oriented deterministic batch
	// execution: each mailbox drain's data operations are planned into
	// per-key FIFO queues executed without lock-manager acquisition (per-key
	// serial, disjoint keys parallel; see planner.go), and snapshot reads
	// are answered at the batch boundary. Forced on when the engine itself
	// runs in queue mode — a speculative engine without the planner's
	// per-key serialization would be unsound. Off — the default — keeps the
	// paper-exact lock-managed execution.
	QueueExec bool
	// Repl, when the shard is replicated, is the primary's record streamer:
	// the server routes incoming msg.ReplAck to it. Nil on an unreplicated
	// server (and on every deployment with ReplicaFactor 1).
	Repl *repl.Streamer
	// Epoch is the shard epoch this server serves at: 1 for a boot primary,
	// the promotion epoch for a promoted backup. NewPrimary announcements
	// depose the server only when they carry a later epoch (or the same
	// epoch from a lower-id winner of a concurrent-promotion tie). Zero
	// defaults to 1.
	Epoch uint64
}

// DataServer is the paper's database-server process (Figure 3): a pure
// server that votes on and decides results, and additionally executes the
// business logic's data operations (the paper folds those into compute()).
type DataServer struct {
	cfg DataServerConfig

	execQ *queue.Queue[execJob]

	// Per-key run queues of the queue-execution mode (planner.go).
	runMu sync.Mutex
	runs  map[string]*keyRun

	// Queue-execution counters (snapshot via Stats).
	plannedBatches metrics.Counter
	plannedOps     metrics.Counter
	snapReads      metrics.Counter
	gatedVotes     metrics.Counter

	// lastServe is the wall-clock nanosecond of the most recent mailbox
	// activity, read by Drain to find a quiet point for graceful shutdown.
	lastServe atomic.Int64

	// deposed is set when a NewPrimary announcement names another node as
	// this shard's primary: a later epoch exists, so this server stops
	// serving the 2PC surface (its in-flight votes are already rejected by
	// the application tier's epoch guard; the flag just stops it burning
	// work and, on a false suspicion, ends the split-brain window).
	deposed atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// DataServerStats is a snapshot of the server's queue-execution counters.
type DataServerStats struct {
	// PlannedBatches counts mailbox drains that went through the planner.
	PlannedBatches uint64
	// PlannedOps counts keyed operations routed through per-key run queues.
	PlannedOps uint64
	// SnapReads counts read-only fast-path answers served at batch
	// boundaries.
	SnapReads uint64
	// GatedVotes counts votes resolved off the drain path because chain
	// predecessors were still undecided.
	GatedVotes uint64
}

// Stats snapshots the queue-execution counters (all zero with QueueExec
// off).
func (d *DataServer) Stats() DataServerStats {
	return DataServerStats{
		PlannedBatches: d.plannedBatches.Load(),
		PlannedOps:     d.plannedOps.Load(),
		SnapReads:      d.snapReads.Load(),
		GatedVotes:     d.gatedVotes.Load(),
	}
}

// String renders the counters for liveness dumps.
func (s DataServerStats) String() string {
	return fmt.Sprintf("queue{batches=%d ops=%d snapreads=%d gated=%d}",
		s.PlannedBatches, s.PlannedOps, s.SnapReads, s.GatedVotes)
}

// DebugStats renders the server's execution-mode counters next to the
// engine's lock-contention and speculation stats, for liveness diagnostics
// and bench reports.
func (d *DataServer) DebugStats() string {
	return fmt.Sprintf("%s: %s locks{%s} %s",
		d.cfg.Self, d.Stats(), d.cfg.Engine.LockStats(), d.cfg.Engine.SpecStats())
}

// execJob is one queued business-data operation.
type execJob struct {
	from id.NodeID
	m    msg.Exec
}

// NewDataServer creates a database-server process. Call Start to run it.
func NewDataServer(cfg DataServerConfig) (*DataServer, error) {
	if cfg.Engine == nil {
		return nil, errors.New("core: DataServer needs an Engine")
	}
	if cfg.Endpoint == nil {
		return nil, errors.New("core: DataServer needs an Endpoint")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Engine.QueueExec() {
		// A speculative engine is only sound under the planner's per-key
		// serialization; never run one behind the lock-mode exec pool.
		cfg.QueueExec = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &DataServer{
		cfg:    cfg,
		execQ:  queue.New[execJob](),
		runs:   make(map[string]*keyRun),
		ctx:    ctx,
		cancel: cancel,
	}
	d.lastServe.Store(time.Now().UnixNano())
	return d, nil
}

// Start launches the server loop. If this is a recovery start it first
// notifies all application servers with [Ready] (Figure 3, lines 1-2).
func (d *DataServer) Start() {
	if d.cfg.Recovery {
		_ = transport.Broadcast(d.cfg.Endpoint, d.cfg.AppServers,
			msg.Ready{Inc: d.cfg.Engine.Incarnation()})
	}
	d.wg.Add(1)
	go d.loop()
	for i := 0; i < execWorkers; i++ {
		d.wg.Add(1)
		go d.execWorker()
	}
}

// Stop terminates the server loop and waits for in-flight handlers.
func (d *DataServer) Stop() {
	d.cancel()
	d.execQ.Close()
	d.wg.Wait()
}

// Drain blocks until the server has been quiet — an empty mailbox and no
// message served — for the given period, or until max elapses. It is the
// graceful-shutdown half of Stop: a binary that traps SIGTERM calls Drain
// first so in-flight Prepare/Decide rounds finish and their forced log
// records land, then Stop, then a final stable-store Sync. Drain never
// rejects new work by itself; the operator is expected to have stopped (or
// be about to stop) the traffic source.
func (d *DataServer) Drain(quiet, max time.Duration) {
	if quiet <= 0 {
		quiet = 50 * time.Millisecond
	}
	deadline := time.Now().Add(max)
	for {
		idle := time.Duration(time.Now().UnixNano() - d.lastServe.Load())
		if idle >= quiet && len(d.cfg.Endpoint.Recv()) == 0 {
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
		wait := quiet - idle
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		select {
		case <-time.After(wait):
		case <-d.ctx.Done():
			return
		}
	}
}

// execWorker serves queued business-data operations.
func (d *DataServer) execWorker() {
	defer d.wg.Done()
	for {
		for {
			job, ok := d.execQ.Pop()
			if !ok {
				break
			}
			rep := d.cfg.Engine.Exec(d.ctx, job.m.RID, job.m.Op)
			d.reply(job.from, msg.ExecReply{RID: job.m.RID, CallID: job.m.CallID, Rep: rep, Inc: d.cfg.Engine.Incarnation()})
		}
		if d.execQ.Closed() {
			return
		}
		select {
		case <-d.execQ.Out():
		case <-d.ctx.Done():
			return
		}
	}
}

// Engine exposes the underlying engine (tests, oracles).
func (d *DataServer) Engine() *xadb.Engine { return d.cfg.Engine }

// Deposed reports whether a later-epoch primary has taken this server's
// shard over (tests assert a falsely suspected primary fences itself).
func (d *DataServer) Deposed() bool { return d.deposed.Load() }

func (d *DataServer) loop() {
	defer d.wg.Done()
	for {
		select {
		case env, ok := <-d.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			batch := d.drain(env)
			d.lastServe.Store(time.Now().UnixNano())
			// Each drained batch is served on its own goroutine, and Execs
			// get further goroutines of their own: an Exec blocked on a lock
			// must not delay the Decide(abort) that would release it.
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				d.serveBatch(batch)
			}()
		case <-d.ctx.Done():
			return
		}
	}
}

// drain opportunistically empties the mailbox behind first, up to the batch
// cap, without blocking: whatever queued up while the previous batch was
// being served is exactly the group-commit cohort. The cap counts messages,
// not envelopes — a Batch envelope counts as its member count, so an
// aggregating middle tier cannot inflate one engine batch to cap² messages
// (the last envelope may overshoot the cap by its own size).
func (d *DataServer) drain(first msg.Envelope) []msg.Envelope {
	batch := []msg.Envelope{first}
	n := msgCount(first)
	for n < d.cfg.MaxBatch {
		select {
		case env, ok := <-d.cfg.Endpoint.Recv():
			if !ok {
				return batch
			}
			batch = append(batch, env)
			n += msgCount(env)
		default:
			return batch
		}
	}
	return batch
}

// msgCount is an envelope's weight against the drain cap.
func msgCount(env msg.Envelope) int {
	if b, ok := env.Payload.(msg.Batch); ok {
		return len(b.Msgs)
	}
	return 1
}

// serveBatch serves one drained batch: Batch envelopes are flattened, the
// Prepares and Decides are run through the engine's batched entry points so
// their records share one forced write, and replies to the same application
// server coalesce into one Batch envelope. Decides run before Prepares so an
// abort releases locks a vote in the same batch may be queued behind.
func (d *DataServer) serveBatch(envs []msg.Envelope) {
	var prepFrom, decFrom []id.NodeID
	var prepRIDs []id.ResultID
	var decReqs []xadb.DecideReq
	var execs []execJob // queue mode: planned after the drain is demuxed
	var snapFrom []id.NodeID
	var snaps []msg.Exec // queue mode: answered at the batch boundary

	handle := func(from id.NodeID, p msg.Payload) {
		switch m := p.(type) {
		case msg.Exec:
			if d.deposed.Load() {
				return // fenced: a later-epoch primary serves this shard now
			}
			switch {
			case d.cfg.QueueExec && m.Op.Code == msg.OpSnapRead:
				snapFrom = append(snapFrom, from)
				snaps = append(snaps, m)
			case d.cfg.QueueExec:
				execs = append(execs, execJob{from: from, m: m})
			default:
				d.execQ.Push(execJob{from: from, m: m})
			}
		case msg.Prepare:
			if d.deposed.Load() {
				return
			}
			prepFrom = append(prepFrom, from)
			prepRIDs = append(prepRIDs, m.RID)
		case msg.Decide:
			if d.deposed.Load() {
				return
			}
			decFrom = append(decFrom, from)
			decReqs = append(decReqs, xadb.DecideReq{RID: m.RID, O: m.O})
		case msg.Commit1P:
			if d.deposed.Load() {
				return
			}
			// Single-phase commit for the unreliable baseline (Figure 7a).
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				o := d.cfg.Engine.CommitDirect(m.RID)
				d.reply(from, msg.AckDecide{RID: m.RID, O: o})
			}()
		case msg.ReplAck:
			if d.cfg.Repl != nil {
				d.cfg.Repl.HandleAck(from, m)
			}
		case msg.NewPrimary:
			// Only replica-group members and stale claimants receive this.
			// Another node announcing a strictly later epoch owns the shard:
			// fence ourselves. Concurrent false suspicions can promote two
			// backups at the SAME epoch; the tie resolves to the lower node
			// id (group rank is ascending id), so exactly one of the two
			// deposes and the other keeps serving — matching the tie-break
			// placement.View.Advance applies on the application servers.
			if m.Primary != d.cfg.Self &&
				(m.Epoch > d.cfg.Epoch ||
					(m.Epoch == d.cfg.Epoch && m.Primary.Index < d.cfg.Self.Index)) {
				d.deposed.Store(true)
			}
		case msg.Request, msg.Result, msg.Heartbeat, msg.Estimate, msg.Propose,
			msg.CAck, msg.CNack, msg.CDecision, msg.Checkpoint, msg.VoteMsg,
			msg.AckDecide, msg.Ready, msg.ExecReply, msg.RegOps,
			msg.RData, msg.RAck, msg.Batch, msg.PBStart, msg.PBStartAck,
			msg.PBOutcome, msg.PBOutcomeAck, msg.ReplRecord:
			// Database servers are pure servers: requests/results belong to
			// the client edge, consensus and register traffic to the
			// application tier, RData/RAck/Batch to the transport layers
			// below this demux, PB* to the primary-backup baseline, and
			// ReplRecord to backup appliers (a deposed predecessor's stale
			// stream is ignored here). Nested Batch payloads are flattened by
			// the caller, never here.
		}
	}
	for _, env := range envs {
		if b, ok := env.Payload.(msg.Batch); ok {
			for _, p := range b.Msgs {
				handle(env.From, p)
			}
			continue
		}
		handle(env.From, env.Payload)
	}

	replies := make(map[id.NodeID][]msg.Payload)
	if len(decReqs) > 0 || len(prepRIDs) > 0 {
		outs, votes, gated := d.cfg.Engine.DecideAndVoteBatchSpec(decReqs, prepRIDs)
		for i, o := range outs {
			replies[decFrom[i]] = append(replies[decFrom[i]], msg.AckDecide{RID: decReqs[i].RID, O: o})
		}
		skip := make(map[int]bool, len(gated))
		for _, i := range gated {
			skip[i] = true
		}
		for i, v := range votes {
			if skip[i] {
				continue
			}
			replies[prepFrom[i]] = append(replies[prepFrom[i]], msg.VoteMsg{RID: prepRIDs[i], V: v, Inc: d.cfg.Engine.Incarnation()})
		}
		// Gated votes (queue mode: chain predecessors still undecided)
		// resolve off the drain path, each on its own goroutine, so one
		// gated try cannot stall the rest of the batch's replies. The wait
		// inside Vote is bounded by the engine's lock-timeout.
		for _, i := range gated {
			d.gatedVotes.Inc()
			i := i
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				v := d.cfg.Engine.Vote(prepRIDs[i])
				d.reply(prepFrom[i], msg.VoteMsg{RID: prepRIDs[i], V: v, Inc: d.cfg.Engine.Incarnation()})
			}()
		}
	}
	for to, msgs := range replies {
		if len(msgs) == 1 {
			d.reply(to, msgs[0])
			continue
		}
		d.reply(to, msg.Batch{Msgs: msgs})
	}
	// Batch boundary: the drain's decides have applied, so the committed
	// store is a fully-executed-batch snapshot — answer the read-only fast
	// path from it, then hand the keyed operations to their run queues.
	for i, m := range snaps {
		d.snapReads.Inc()
		d.reply(snapFrom[i], msg.ExecReply{RID: m.RID, CallID: m.CallID,
			Rep: d.cfg.Engine.SnapRead(m.Op.Key), Inc: d.cfg.Engine.Incarnation()})
	}
	d.runPlanned(execs)
}

func (d *DataServer) reply(to id.NodeID, p msg.Payload) {
	_ = d.cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
}

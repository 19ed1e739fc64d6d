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

// execWorkers sizes the pool serving keyless business-data operations (the
// cost model's simulated work), which run off the serve loop so their
// duration never delays votes or decides; keyed operations run on per-key
// runners (planner.go).
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

	// Per-key run queues (planner.go).
	runMu sync.Mutex
	runs  map[string]*keyRun

	// Queue-execution counters (snapshot via Stats).
	plannedBatches metrics.Counter
	plannedOps     metrics.Counter
	snapReads      metrics.Counter

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
}

// Stats snapshots the queue-execution counters.
func (d *DataServer) Stats() DataServerStats {
	return DataServerStats{
		PlannedBatches: d.plannedBatches.Load(),
		PlannedOps:     d.plannedOps.Load(),
		SnapReads:      d.snapReads.Load(),
	}
}

// String renders the counters for liveness dumps.
func (s DataServerStats) String() string {
	return fmt.Sprintf("queue{batches=%d ops=%d snapreads=%d}",
		s.PlannedBatches, s.PlannedOps, s.SnapReads)
}

// DebugStats renders the server's execution counters next to the engine's
// speculation stats (parked votes among them), for liveness diagnostics and
// bench reports.
func (d *DataServer) DebugStats() string {
	return fmt.Sprintf("%s: %s %s", d.cfg.Self, d.Stats(), d.cfg.Engine.SpecStats())
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
	d.wg.Add(2)
	go d.loop()
	go d.sweepParked()
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

// sweepParked runs the engine's parked-vote sweep every eighth of the
// vote-gate bound (at least every millisecond), so a parked vote is answered
// no within 1.125×LockTimeout of parking.
func (d *DataServer) sweepParked() {
	defer d.wg.Done()
	t := time.NewTicker(max(d.cfg.Engine.LockTimeout()/8, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.send(d.voteReplies(d.cfg.Engine.ExpireParked()))
		case <-d.ctx.Done():
			return
		}
	}
}

// voteReplies groups one VoteMsg per engine vote reply by recipient.
func (d *DataServer) voteReplies(votes []xadb.VoteReply) map[id.NodeID][]msg.Payload {
	replies := make(map[id.NodeID][]msg.Payload)
	for _, v := range votes {
		replies[v.To] = append(replies[v.To], msg.VoteMsg{RID: v.RID, V: v.V, Inc: d.cfg.Engine.Incarnation()})
	}
	return replies
}

// send sends each recipient's replies, several in one Batch envelope.
func (d *DataServer) send(replies map[id.NodeID][]msg.Payload) {
	for to, msgs := range replies {
		if len(msgs) == 1 {
			d.reply(to, msgs[0])
			continue
		}
		d.reply(to, msg.Batch{Msgs: msgs})
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
			// Each drained batch is served on its own goroutine, so the next
			// drain is read while this one waits on its device force.
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
// being served is exactly the group-commit cohort.
func (d *DataServer) drain(first msg.Envelope) []msg.Envelope {
	batch := []msg.Envelope{first}
	for len(batch) < d.cfg.MaxBatch {
		select {
		case env, ok := <-d.cfg.Endpoint.Recv():
			if !ok {
				return batch
			}
			batch = append(batch, env)
		default:
			return batch
		}
	}
	return batch
}

// serveBatch serves one drained batch: the Prepares and Decides are run
// through the engine's batched entry points so their records share one
// forced write, and replies to the same application server coalesce into one
// Batch envelope. A vote gated on an undecided chain predecessor is parked
// in the engine; it leaves with the replies of the drain whose decide
// releases it.
func (d *DataServer) serveBatch(envs []msg.Envelope) {
	var decFrom []id.NodeID
	var voteReqs []xadb.VoteReq
	var decReqs []xadb.DecideReq
	var execs []execJob // planned after the drain is demuxed
	var snapFrom []id.NodeID
	var snaps []msg.Exec // answered at the batch boundary

	for _, env := range envs {
		from := env.From
		switch m := env.Payload.(type) {
		case msg.Exec:
			if d.deposed.Load() {
				continue // fenced: a later-epoch primary serves this shard now
			}
			if m.Op.Code == msg.OpSnapRead {
				snapFrom = append(snapFrom, from)
				snaps = append(snaps, m)
			} else {
				execs = append(execs, execJob{from: from, m: m})
			}
		case msg.Prepare:
			if d.deposed.Load() {
				continue
			}
			voteReqs = append(voteReqs, xadb.VoteReq{RID: m.RID, From: from})
		case msg.Decide:
			if d.deposed.Load() {
				continue
			}
			decFrom = append(decFrom, from)
			decReqs = append(decReqs, xadb.DecideReq{RID: m.RID, O: m.O})
		case msg.Commit1P:
			if d.deposed.Load() {
				continue
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
			// application tier, RData/RAck to the transport layers below
			// this demux, PB* to the primary-backup baseline, and
			// ReplRecord to backup appliers (a deposed predecessor's stale
			// stream is ignored here). Batch envelopes travel only toward
			// the application tier: every sender sends a data server one
			// message per envelope.
		}
	}

	if len(decReqs) > 0 || len(voteReqs) > 0 {
		outs, votes := d.cfg.Engine.DecideAndVoteBatchSpec(decReqs, voteReqs)
		replies := d.voteReplies(votes)
		for i, o := range outs {
			replies[decFrom[i]] = append(replies[decFrom[i]], msg.AckDecide{RID: decReqs[i].RID, O: o})
		}
		d.send(replies)
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

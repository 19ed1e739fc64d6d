// Package repl replicates the data tier: each shard runs a replica group of
// one primary database server plus asynchronous backups, with detector-driven
// promotion when the primary is suspected.
//
// The scheme is the paper's own asymmetric-replication discipline applied one
// tier down. The primary executes, votes and decides exactly as an unreplicated
// server; the only addition is a hook on its write-ahead log: every appended
// record is streamed to the shard's backups (msg.ReplRecord) the moment it is
// appended, before the vote or ack that the record justifies leaves the
// primary. A backup is not a server at all — it owns no engine and takes no
// part in 2PC; it applies the stream onto its own stable storage so that, on
// promotion, the ordinary crash-recovery path (xadb.Open over the replicated
// log) rebuilds the shard: committed effects are replayed, prepared-but-
// undecided branches come back in-doubt with their locks, exactly as if the
// primary itself had restarted on the backup's disk.
//
// Promotion is deterministic: group members monitor the current primary with
// the same eventually-perfect heartbeat detector the application tier uses,
// and when the primary is suspected the lowest-ranked unsuspected member (in
// group declaration order) takes over. The successor drains its mailbox of the
// dead primary's stream tail, forces its log, opens the engine — the streamed
// incarnation floor (xadb.SetIncarnationFloor) guarantees the promoted engine
// opens at a strictly higher incarnation than the primary ever ran, so votes
// pinned to the old primary fail the application tier's incarnation check and
// in-flight tries abort cleanly — and announces itself with an epoch-stamped
// msg.NewPrimary. Application servers only ever advance to strictly higher
// epochs (placement.View), so a deposed primary's claims and votes are
// rejected, never raced.
//
// Streams are identified by the primary's incarnation: a ReplRecord with a
// higher incarnation than the stream a backup is applying means a new primary
// took over, and the backup truncates its log and adopts the new stream from
// sequence one (the new primary primes its full log into the stream, so
// adoption is a complete resync). Cumulative acks double as loss repair: a
// backup acks the sequence it has applied through, and a primary that sees
// the same ack twice with records outstanding re-sends the tail.
package repl

import (
	"context"
	"encoding/binary"
	"log"
	"sync"
	"time"

	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/wal"
	"etx/internal/xadb"
)

// epochKey is the stable-storage key a promoted backup records its epoch
// under (observability across restarts; the authoritative epoch order lives
// in the application servers' views).
const epochKey = "repl/epoch"

// --- streamer (primary side) -------------------------------------------------

// StreamerConfig parameterizes a primary's replication streamer.
type StreamerConfig struct {
	// Self is the primary.
	Self id.NodeID
	// Backups are the other members of the shard's replica group (the stream
	// destinations). A crashed member costs nothing: sends to down nodes are
	// dropped by the network.
	Backups []id.NodeID
	// Send transmits to a backup; required. The in-memory network's Send
	// enqueues synchronously, which is what makes promotion loss-free: every
	// record is in every live backup's mailbox before the primary's vote or
	// ack leaves the machine.
	Send fd.SendFunc
	// HeartbeatInterval paces the liveness beacons the group's detectors
	// monitor. Defaults to 10ms (the fd package default).
	HeartbeatInterval time.Duration
}

// Streamer is the primary-side half of the replication protocol: it assigns
// stream sequence numbers to write-ahead-log records, fans them out to the
// backups, and repairs losses from cumulative acks. Hook Replicate into
// xadb.Config.Replicate and feed incoming msg.ReplAck to HandleAck.
type Streamer struct {
	cfg StreamerConfig
	hb  *fd.Heartbeat

	mu    sync.Mutex
	inc   uint64 // the primary engine's incarnation; stamps the stream
	seq   uint64
	recs  [][]byte             // encoded records; recs[i] is sequence i+1
	acked map[id.NodeID]uint64 // highest cumulative ack per backup

	stop func()
}

// NewStreamer creates a streamer. Call SetInc with the engine's incarnation
// after xadb.Open and before any record can be appended, then Start.
func NewStreamer(cfg StreamerConfig) *Streamer {
	return &Streamer{cfg: cfg, acked: make(map[id.NodeID]uint64)}
}

// SetInc stamps the stream with the primary engine's incarnation. Backups use
// it to tell this primary's stream from a predecessor's.
func (s *Streamer) SetInc(inc uint64) {
	s.mu.Lock()
	s.inc = inc
	s.mu.Unlock()
}

// Start launches the group heartbeat beacons. Stop with Stop.
func (s *Streamer) Start() {
	if len(s.cfg.Backups) == 0 {
		return
	}
	s.hb = fd.NewHeartbeat(fd.Config{
		Self:     s.cfg.Self,
		Peers:    s.cfg.Backups,
		Send:     s.cfg.Send,
		Interval: s.cfg.HeartbeatInterval,
	})
	ctx, cancel := newContext()
	s.stop = cancel
	s.hb.Start(ctx)
}

// Stop terminates the beacons.
func (s *Streamer) Stop() {
	if s.stop != nil {
		s.stop()
		s.hb.Wait()
	}
}

// Replicate streams one appended record to every backup. It is the
// xadb.Config.Replicate hook: the engine calls it synchronously right after
// the append, under the same per-branch serialization, so for any two
// conflicting records the stream order matches the log's causal order (the
// sequence number restores that order at the backup when the network
// reorders).
func (s *Streamer) Replicate(rec wal.Record) {
	enc := wal.Encode(rec)
	s.mu.Lock()
	s.seq++
	seq, inc := s.seq, s.inc
	s.recs = append(s.recs, enc)
	s.mu.Unlock()
	for _, b := range s.cfg.Backups {
		_ = s.cfg.Send(b, msg.ReplRecord{Seq: seq, Inc: inc, Rec: enc})
	}
}

// Prime streams an existing log (a promoted or recovered primary's full
// write-ahead log) so backups adopting this stream converge on it from
// scratch. Call after xadb.Open and before the server starts taking traffic.
func (s *Streamer) Prime(recs []wal.Record) {
	for _, rec := range recs {
		s.Replicate(rec)
	}
}

// HandleAck records a backup's cumulative ack. A repeated ack with records
// outstanding means the tail beyond it was lost (or the backup joined
// mid-stream): the streamer re-sends it. Healthy lag never repeats an ack —
// backups only re-ack when idle — so no resend storms.
func (s *Streamer) HandleAck(from id.NodeID, a msg.ReplAck) {
	s.mu.Lock()
	prev, cur := s.acked[from], s.seq
	if a.Seq > prev {
		s.acked[from] = a.Seq
		s.mu.Unlock()
		return
	}
	if a.Seq != prev || a.Seq >= cur {
		s.mu.Unlock()
		return
	}
	tail := make([][]byte, cur-a.Seq)
	copy(tail, s.recs[a.Seq:cur])
	inc := s.inc
	s.mu.Unlock()
	for i, enc := range tail {
		_ = s.cfg.Send(from, msg.ReplRecord{Seq: a.Seq + uint64(i) + 1, Inc: inc, Rec: enc})
	}
}

// Seq returns the last assigned stream sequence.
func (s *Streamer) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Lag returns the largest unacked tail over the backups (0 when fully
// replicated).
func (s *Streamer) Lag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag uint64
	for _, b := range s.cfg.Backups {
		if l := s.seq - s.acked[b]; l > lag {
			lag = l
		}
	}
	return lag
}

// --- backup (replica side) ---------------------------------------------------

// BackupConfig parameterizes a backup applier.
type BackupConfig struct {
	// Self is this backup.
	Self id.NodeID
	// Shard is the replica group's shard ordinal (stamped on NewPrimary).
	Shard int
	// Group is the replica group in promotion order; Group[0] is the boot
	// primary. Self must be a member.
	Group []id.NodeID
	// AppServers receive the NewPrimary announcement on promotion.
	AppServers []id.NodeID
	// Endpoint is the backup's network attachment. The backup owns its Recv
	// stream until promotion hands the node over to a data server.
	Endpoint transport.Endpoint
	// Store is the backup's stable storage; the applied stream lands here and
	// the promoted engine opens over it.
	Store *stablestore.Store
	// InitEpoch / InitPrimary seed the backup's notion of the shard's current
	// ownership. Zero values mean the boot view: epoch 1, primary Group[0].
	// A backup started late (a recovered member rejoining after promotions)
	// must be seeded with the current view or it would monitor the wrong
	// node.
	InitEpoch   uint64
	InitPrimary id.NodeID
	// Detector overrides the failure detector (tests inject fd.Scripted for
	// deterministic promotion). Nil runs a heartbeat detector over the group.
	Detector fd.Detector
	// HeartbeatInterval / SuspectTimeout parameterize the default detector.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// Drained, when set, reports whether every in-flight message from the
	// deposed primary has reached this backup's mailbox (the in-memory
	// network can prove it; see transport.MemNetwork.InFlightFrom). Nil falls
	// back to a quiet period: promotion proceeds once the mailbox has been
	// empty for 5 heartbeat intervals.
	Drained func(oldPrimary id.NodeID) bool
	// TakeOver makes this node the shard's serving primary: open the engine
	// over Store and start a data server (with recovery announcement) on this
	// node. Required. It runs after the drain, with the mailbox consumed and
	// the store synced.
	TakeOver func(epoch uint64) error
	// OnPromote, if set, observes a completed promotion and its latency
	// (suspicion observed -> NewPrimary announced).
	OnPromote func(latency time.Duration)
	// Now is the clock (latency measurement and drain pacing). Defaults to
	// time.Now.
	Now func() time.Time
}

// Backup is a shard replica: it applies the primary's record stream onto its
// own stable storage and promotes itself when the detector names it the
// successor. Run with Start; it terminates on its own after a promotion (the
// node is a data server from then on) or when stopped.
type Backup struct {
	cfg BackupConfig
	log *wal.Log
	hb  *fd.Heartbeat
	det fd.Detector

	mu        sync.Mutex
	streamInc uint64            // incarnation of the stream being applied
	applied   uint64            // sequence applied through (cumulative ack)
	buffer    map[uint64][]byte // out-of-order records awaiting their gap
	src       id.NodeID         // sender of the last stream record
	epoch     uint64            // highest epoch observed for this shard
	primary   id.NodeID         // current primary under that epoch
	promoted  bool

	ctx    func() <-chan struct{}
	cancel func()
	wg     sync.WaitGroup
}

// NewBackup creates a backup applier.
func NewBackup(cfg BackupConfig) *Backup {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 10 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	b := &Backup{
		cfg:     cfg,
		log:     wal.New(cfg.Store),
		buffer:  make(map[uint64][]byte),
		epoch:   1,
		primary: cfg.Group[0],
	}
	if cfg.InitEpoch > 1 && !cfg.InitPrimary.IsZero() {
		b.epoch = cfg.InitEpoch
		b.primary = cfg.InitPrimary
	}
	b.det = cfg.Detector
	if b.det == nil {
		var peers []id.NodeID
		for _, m := range cfg.Group {
			if m != cfg.Self {
				peers = append(peers, m)
			}
		}
		hb := fd.NewHeartbeat(fd.Config{
			Self:     cfg.Self,
			Peers:    peers,
			Send:     func(to id.NodeID, p msg.Payload) error { return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p}) },
			Interval: cfg.HeartbeatInterval,
			Timeout:  cfg.SuspectTimeout,
		})
		b.hb = hb
		b.det = hb
	}
	return b
}

// Start launches the applier and promotion monitor.
func (b *Backup) Start() {
	ctx, cancel := newContext()
	b.ctx = func() <-chan struct{} { return ctx.Done() }
	b.cancel = cancel
	if b.hb != nil {
		b.hb.Start(ctx)
	}
	b.wg.Add(1)
	go b.run()
}

// Stop terminates the applier (no-op after a promotion handed the node over).
func (b *Backup) Stop() {
	if b.cancel != nil {
		b.cancel()
	}
	if b.hb != nil {
		b.hb.Wait()
	}
	b.wg.Wait()
}

// Promoted reports whether this backup has taken the shard over.
func (b *Backup) Promoted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.promoted
}

// Applied returns the stream position applied through (tests observe lag).
func (b *Backup) Applied() (inc, seq uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.streamInc, b.applied
}

// run is the applier loop: apply stream records, feed the detector, watch for
// the moment this backup becomes the successor.
func (b *Backup) run() {
	defer b.wg.Done()
	wake := make(chan struct{}, 1)
	if n, ok := b.det.(fd.Notifier); ok {
		n.Subscribe(wake)
		defer n.Unsubscribe(wake)
	}
	ticker := time.NewTicker(b.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case env, ok := <-b.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			b.handle(env.From, env.Payload)
		case <-wake:
			if b.maybePromote() {
				return
			}
		case <-ticker.C:
			b.ackIdle()
			if b.maybePromote() {
				return
			}
		case <-b.ctx():
			return
		}
	}
}

// handle demuxes one incoming payload. Backups speak only the replication
// sub-protocol; everything else on the wire is another tier's business and is
// deliberately ignored (early traffic addressed to a promoting node is
// re-sent by the application tier's retry/resend paths).
func (b *Backup) handle(from id.NodeID, p msg.Payload) {
	switch m := p.(type) {
	case msg.ReplRecord:
		// A flowing stream is the strongest liveness signal there is: count
		// records as heartbeats so a primary whose beacon goroutine is
		// starved by load is never falsely suspected while it replicates.
		if b.hb != nil {
			b.hb.Observe(from)
		}
		b.applyRecord(from, m)
	case msg.Heartbeat:
		if b.hb != nil {
			b.hb.Observe(from)
		}
	case msg.NewPrimary:
		b.observeNewPrimary(m)
	case msg.Request, msg.Result, msg.Exec, msg.ExecReply, msg.Prepare,
		msg.VoteMsg, msg.Decide, msg.AckDecide, msg.Commit1P, msg.Ready,
		msg.Estimate, msg.Propose, msg.CAck, msg.CNack, msg.CDecision,
		msg.Checkpoint, msg.RegOps, msg.RData, msg.RAck, msg.Batch,
		msg.PBStart, msg.PBStartAck, msg.PBOutcome, msg.PBOutcomeAck,
		msg.ReplAck:
		// Not ours: client/app-tier protocol traffic, consensus, registers,
		// transport layers, baselines — and ReplAck, which only a primary's
		// streamer consumes.
	}
}

// applyRecord applies one stream record in sequence order, buffering gaps and
// adopting newer streams (higher incarnation) from scratch.
func (b *Backup) applyRecord(from id.NodeID, m msg.ReplRecord) {
	b.mu.Lock()
	if m.Inc < b.streamInc {
		// A deposed primary's stale stream: never apply, never ack.
		b.mu.Unlock()
		return
	}
	if m.Inc > b.streamInc {
		// A new primary's stream. Its first records carry the full log
		// (Prime), so adopting it from scratch is a complete resync: drop
		// the old stream's log and start over.
		b.streamInc = m.Inc
		b.applied = 0
		b.buffer = make(map[uint64][]byte)
		b.log.Truncate()
		// Floor the store's incarnation before anything of this stream is
		// acked: if this backup is ever promoted, its engine must open above
		// the incarnation that produced these records.
		xadb.SetIncarnationFloor(b.cfg.Store, m.Inc)
	}
	b.src = from
	if m.Seq <= b.applied {
		applied := b.applied
		b.mu.Unlock()
		b.ack(from, applied) // duplicate: re-ack so the streamer advances
		return
	}
	b.buffer[m.Seq] = m.Rec
	for {
		enc, ok := b.buffer[b.applied+1]
		if !ok {
			break
		}
		delete(b.buffer, b.applied+1)
		b.applied++
		// Asynchronous replication: appends are not forced record-by-record;
		// promotion syncs once before the engine opens.
		b.log.AppendRaw(enc, false)
	}
	applied := b.applied
	b.mu.Unlock()
	b.ack(from, applied)
}

// ackIdle re-acks the current stream position when the applier is idle. A
// healthy backup's acks strictly increase, so a repeat tells the streamer the
// tail beyond it was lost (or that this backup joined mid-stream) and needs a
// resend.
func (b *Backup) ackIdle() {
	b.mu.Lock()
	src, applied := b.src, b.applied
	if src.IsZero() {
		src = b.primary
	}
	b.mu.Unlock()
	if src == b.cfg.Self {
		return
	}
	b.ack(src, applied)
}

func (b *Backup) ack(to id.NodeID, seq uint64) {
	_ = b.cfg.Endpoint.Send(msg.Envelope{To: to, Payload: msg.ReplAck{Seq: seq}})
}

// observeNewPrimary tracks the shard's epoch so this backup monitors (and
// succeeds) the right node, and stands down if someone else won a race.
func (b *Backup) observeNewPrimary(m msg.NewPrimary) {
	if int(m.Shard) != b.cfg.Shard {
		return
	}
	b.mu.Lock()
	// Same tie-break as placement.View.Advance: a strictly later epoch
	// always wins, and within one epoch the lower node id does (concurrent
	// false suspicions can promote two members at the same epoch; every
	// observer must converge on the same winner).
	if m.Epoch > b.epoch || (m.Epoch == b.epoch && m.Primary.Index < b.primary.Index) {
		b.epoch = m.Epoch
		b.primary = m.Primary
	}
	b.mu.Unlock()
}

// maybePromote checks whether the current primary is suspected and this
// backup is the deterministic successor: the first group member, in
// declaration order, that is neither the deposed primary nor suspected. It
// returns true when the node has been handed over to a data server.
func (b *Backup) maybePromote() bool {
	b.mu.Lock()
	cur, epoch := b.primary, b.epoch
	b.mu.Unlock()
	if cur == b.cfg.Self || !b.det.Suspects(cur) {
		return false
	}
	for _, m := range b.cfg.Group {
		if m == cur || b.det.Suspects(m) {
			continue
		}
		if m == b.cfg.Self {
			break
		}
		return false // a lower-ranked live member succeeds, not us
	}
	b.promote(cur, epoch+1)
	return true
}

// promote takes the shard over: drain the dead primary's stream tail, force
// the log, open the engine via TakeOver, announce the new epoch.
func (b *Backup) promote(old id.NodeID, epoch uint64) {
	start := b.cfg.Now()
	log.Printf("repl: %s: primary %s suspected, promoting to shard %d primary at epoch %d",
		b.cfg.Self, old, b.cfg.Shard, epoch)
	b.drain(old)
	b.mu.Lock()
	if dropped := len(b.buffer); dropped > 0 {
		// Gap at the stream tail after a complete drain: records the dead
		// primary never finished fanning out. Nothing beyond the gap was
		// acked to the application tier before the crash (records are
		// streamed before votes leave), so dropping them is safe.
		log.Printf("repl: %s: dropping %d unappliable tail records past seq %d", b.cfg.Self, dropped, b.applied)
		b.buffer = make(map[uint64][]byte)
	}
	b.promoted = true
	b.epoch = epoch
	b.primary = b.cfg.Self
	b.mu.Unlock()
	b.cfg.Store.Sync()
	putEpoch(b.cfg.Store, epoch)
	if err := b.cfg.TakeOver(epoch); err != nil {
		log.Printf("repl: %s: take-over failed: %v", b.cfg.Self, err)
		return
	}
	// Announce after the server is up, so re-routed traffic finds it serving.
	ann := msg.NewPrimary{Shard: uint64(b.cfg.Shard), Epoch: epoch, Primary: b.cfg.Self}
	for _, a := range b.cfg.AppServers {
		_ = b.cfg.Endpoint.Send(msg.Envelope{To: a, Payload: ann})
	}
	for _, m := range b.cfg.Group {
		if m != b.cfg.Self {
			_ = b.cfg.Endpoint.Send(msg.Envelope{To: m, Payload: ann})
		}
	}
	took := b.cfg.Now().Sub(start)
	log.Printf("repl: %s: serving shard %d at epoch %d (promotion took %s)", b.cfg.Self, b.cfg.Shard, epoch, took)
	if b.cfg.OnPromote != nil {
		b.cfg.OnPromote(took)
	}
}

// drain consumes the mailbox until every in-flight message from the deposed
// primary has been received and applied. With a Drained oracle (in-memory
// network) that is exact; otherwise a quiet period approximates it.
func (b *Backup) drain(old id.NodeID) {
	for {
		select {
		case env, ok := <-b.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			b.handle(env.From, env.Payload)
			continue
		default:
		}
		// Mailbox empty this instant.
		if b.cfg.Drained != nil {
			if b.cfg.Drained(old) {
				return
			}
			// In-flight messages remain: yield until they land.
			select {
			case env, ok := <-b.cfg.Endpoint.Recv():
				if !ok {
					return
				}
				b.handle(env.From, env.Payload)
			case <-time.After(b.cfg.HeartbeatInterval / 4):
			}
			continue
		}
		select {
		case env, ok := <-b.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			b.handle(env.From, env.Payload)
		case <-time.After(5 * b.cfg.HeartbeatInterval):
			return
		}
	}
}

// putEpoch records the promotion epoch on stable storage.
func putEpoch(st *stablestore.Store, epoch uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], epoch)
	st.Put(epochKey, buf[:])
}

// newContext is the lifetime context the streamer's and backup's goroutines
// run under.
func newContext() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

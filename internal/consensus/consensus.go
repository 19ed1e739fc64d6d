// Package consensus implements Chandra–Toueg ◊S rotating-coordinator
// consensus among the application servers, the substrate the paper assumes
// for its wo-registers ("every application server would have a copy of the
// register ... writing a value comes down to proposing that value for the
// consensus protocol, e.g. [4]").
//
// One Node runs on each application server and multiplexes any number of
// independent consensus instances, one per slot of a shared batch log
// (msg.SlotKey(n)) — the only keyspace. The decided value of slot n is an
// ordered batch of register operations (msg.RegOp); every node applies
// decided slots strictly in slot order, deciding each named register
// (regA[j]/regD[j]) with the first value written to it across the whole slot
// sequence. Because application order is the agreed slot order, the
// first-write-wins outcome of every register is identical on every node. A
// slot carrying one op is the paper's one consensus instance per register
// write; a slot carrying a cohort commits many writes in one instance.
// Registers are the applied state, never instances of their own: Propose
// refuses a register key, and a register-keyed Estimate, Propose, CAck or
// CNack is dropped.
//
// The algorithm per instance is the classic one from Chandra & Toueg,
// "Unreliable failure detectors for reliable distributed systems"
// (JACM 1996):
//
//	round r (r = 1, 2, ...), coordinator c = peers[(r-1) mod n]:
//	 phase 1: every process sends its estimate (value, ts) to c
//	 phase 2: c gathers a majority of estimates, picks the one with the
//	          highest ts, and proposes it to all
//	 phase 3: each process waits for c's proposal (adopt + ack) or until it
//	          suspects c (nack), then moves to round r+1
//	 phase 4: if c gathers a majority of acks it decides and broadcasts the
//	          decision; laggards pull
//
// Phase 4 is the coordinator's broadcast alone. A process that learns a
// decision from a CDecision, a checkpoint or slot application records it
// and relays nothing, and a decided process ignores a late ack or nack (the
// decision is already on its way to its sender). A process the broadcast
// missed pulls the decision, on paths that exist anyway:
//
//   - a participant that acked re-acks on the node's tick, as an estimate
//     locked at the round: a coordinator still tallying counts it as the
//     ack, and a decided one answers it with the decision;
//   - if the coordinator is gone, round r+1 re-decides the same value,
//     because the acking majority is locked on it (CT's locking argument —
//     an echo of the decision adds nothing to safety);
//   - a node that missed a batch-log slot entirely probes for it once a
//     peer's watermark passes it (ObserveWatermark).
//
// A failure-free instance costs 3(n-1) remote messages — a proposal, an ack
// and the decision per peer — where every learner echoing the decision cost
// (n-1)^2 more.
//
// Two refinements shape the failure-free cost:
//
//   - Round-1 coordinator fast path: no value can carry a timestamp above 0
//     before round 1, so the round-1 coordinator skips phase 1 and proposes
//     its own estimate immediately — the failure-free write is a true single
//     round trip, as the paper's analysis assumes. The fast-path proposal
//     additionally merges any round-1 estimates already in hand (all timestamps 0, so the union of proposed batches is as
//     valid a proposal as any single one), which folds a concurrent
//     proposer's cohort into the slot instead of forcing it to retry.
//   - No goroutine per instance: an instance is plain state under the node's
//     lock, and stepLocked advances it whenever an input reaches it — a
//     message (Handle), a local proposal (Propose) or a suspicion transition
//     the detector announces (fd.Notifier, which Config requires). What a
//     step sends leaves once the lock is released. The node's one goroutine
//     relays the detector's transitions and ticks every Poll; a tick
//     retransmits only for an instance that has heard nothing for a full
//     resend interval, which a failure-free run never sees.
//
// # Batch-log truncation
//
// With Config.RetainSlots set, the batch log is garbage-collected by a
// low-watermark protocol (the epoch/checkpoint discipline of STAR-style
// systems): every node piggybacks its applied watermark (the highest slot it
// has applied, nextApply-1) on outgoing consensus messages and on the failure
// detector's heartbeats; each node tracks the minimum watermark across the
// peers it does not suspect, and prunes decided slots at or below that
// minimum minus a retention tail of RetainSlots (kept so ordinary laggards
// are still answered with CDecision replay). A node asked about a slot below
// its truncation floor answers with a msg.Checkpoint — its floor plus the
// register effects it holds — and the laggard installs the effects and
// fast-forwards its application cursor instead of re-deciding the pruned
// prefix. Safety is unchanged: a node that ever acked (locked) or decided a
// slot either still holds that state, or has applied-and-pruned the slot and
// refuses to participate in any fresh instance for it, so no quorum can
// re-decide a pruned slot differently. RetainSlots 0 (the default) disables
// truncation and reproduces the unbounded retention exactly.
//
// Safety (agreement, validity) holds with any failure-detector behaviour;
// termination needs a majority of correct processes and the eventual accuracy
// of the detector — exactly the paper's correctness assumptions.
//
// Processes walk rounds strictly sequentially (no round skipping): the
// liveness argument of CT depends on every correct process eventually sending
// its phase-1 estimate for every round it passes through.
package consensus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
)

// SendFunc transmits a payload to a peer.
type SendFunc func(to id.NodeID, p msg.Payload) error

// Config parameterizes a consensus Node.
type Config struct {
	// Self is this process.
	Self id.NodeID
	// Peers is the full, identically-ordered membership on every process
	// (it must include Self). peers[0] is the round-1 coordinator; the
	// paper makes that the default primary application server so that a
	// failure-free register write costs a single round trip.
	Peers []id.NodeID
	// Send transmits consensus messages. Messages to Self short-circuit and
	// never touch Send.
	Send SendFunc
	// Detector provides the suspect() predicate (◊P suffices for ◊S). It
	// must implement fd.Notifier: a suspicion transition is what moves a
	// phase blocked on a crashed coordinator.
	Detector fd.Detector
	// Poll is the node's tick, at which an instance that has heard nothing
	// for max(Poll, 20ms) retransmits. Defaults to 25ms.
	Poll time.Duration
	// RetainSlots enables checkpointed truncation of the batch log: decided
	// slots at or below the cluster-wide minimum applied watermark minus this
	// retention tail are pruned, and questions about pruned slots are
	// answered with checkpoint state transfer instead of decision replay.
	// 0 (the default) retains every decided slot forever — the pre-GC
	// behaviour, and the paper's deferred Section-5 problem.
	RetainSlots int
	// Now is the clock behind every throttle (probe pacing, checkpoint
	// serving, retransmission). Defaults to time.Now; deterministic
	// harnesses inject their own. Protocol *decisions* never read it —
	// rounds and timestamps are logical — it only paces traffic.
	Now func() time.Time
}

func (c Config) validate() error {
	if !c.Self.Role.Valid() {
		return errors.New("consensus: invalid Self")
	}
	if c.Send == nil {
		return errors.New("consensus: Send is required")
	}
	if c.Detector == nil {
		return errors.New("consensus: Detector is required")
	}
	if _, ok := c.Detector.(fd.Notifier); !ok {
		return errors.New("consensus: Detector must implement fd.Notifier")
	}
	found := false
	for _, p := range c.Peers {
		if p == c.Self {
			found = true
		}
	}
	if !found {
		return errors.New("consensus: Peers must contain Self")
	}
	return nil
}

// ErrStopped is returned by Propose when the node shuts down mid-wait.
var ErrStopped = errors.New("consensus: node stopped")

// ErrNotSlot is returned by Propose for a key that is not a batch-log slot:
// registers are decided by the slots that carry them, never by an instance
// of their own.
var ErrNotSlot = errors.New("consensus: not a batch-log slot")

// ErrSlotTruncated is returned by Propose for a batch-log slot at or below
// the local truncation floor: the slot is applied history, and proposing
// there again could only re-litigate it.
var ErrSlotTruncated = errors.New("consensus: slot below truncation floor")

// minResendInterval floors the retransmission cadence: a test may tick far
// faster, but re-broadcasting estimates at that rate would amplify one lost
// message into a flood.
const minResendInterval = 20 * time.Millisecond

// Counters aggregates a node's protocol activity (see Stats).
type Counters struct {
	Instances metrics.Counter // instances started (proposer or passive)
	Proposes  metrics.Counter // local Propose calls that ran an instance
	Rounds    metrics.Counter // rounds entered across all instances
	Messages  metrics.Counter // remote consensus messages sent
	FastPath  metrics.Counter // round-1 coordinator fast-path proposals
	BatchOps  metrics.Counter // register ops decided through applied slots
	Resends   metrics.Counter // tick retransmissions by instances that heard nothing

	SlotsPruned   metrics.Counter // batch-log slots truncated below the floor
	CkptServed    metrics.Counter // checkpoint answers sent to laggards
	CkptInstalled metrics.Counter // checkpoints installed (fast-forwards taken)
	LiveSlots     metrics.Gauge   // decided batch-log slots currently held
}

// Stats is a point-in-time snapshot of a node's counters. LiveSlots, Applied
// and Floor are gauges (current levels, not cumulative counts).
type Stats struct {
	Instances uint64
	Proposes  uint64
	Rounds    uint64
	Messages  uint64
	FastPath  uint64
	BatchOps  uint64
	Resends   uint64

	SlotsPruned          uint64
	CheckpointsServed    uint64
	CheckpointsInstalled uint64
	LiveSlots            uint64 // gauge: decided batch-log slots held right now
	Applied              uint64 // gauge: highest batch-log slot applied (nextApply-1)
	Floor                uint64 // gauge: highest batch-log slot truncated
}

// Sub returns the component-wise difference s - base (benchmark deltas).
// Gauge fields (LiveSlots, Applied, Floor) keep s's absolute value — a
// "delta occupancy" would be meaningless and could underflow.
func (s Stats) Sub(base Stats) Stats {
	return Stats{
		Instances:            s.Instances - base.Instances,
		Proposes:             s.Proposes - base.Proposes,
		Rounds:               s.Rounds - base.Rounds,
		Messages:             s.Messages - base.Messages,
		FastPath:             s.FastPath - base.FastPath,
		BatchOps:             s.BatchOps - base.BatchOps,
		Resends:              s.Resends - base.Resends,
		SlotsPruned:          s.SlotsPruned - base.SlotsPruned,
		CheckpointsServed:    s.CheckpointsServed - base.CheckpointsServed,
		CheckpointsInstalled: s.CheckpointsInstalled - base.CheckpointsInstalled,
		LiveSlots:            s.LiveSlots,
		Applied:              s.Applied,
		Floor:                s.Floor,
	}
}

// String renders the snapshot for diagnostics.
func (s Stats) String() string {
	return fmt.Sprintf("instances=%d proposes=%d rounds=%d msgs=%d fastpath=%d batchops=%d resends=%d "+
		"pruned=%d ckpt=%d/%d slots=%d applied=%d floor=%d",
		s.Instances, s.Proposes, s.Rounds, s.Messages, s.FastPath, s.BatchOps, s.Resends,
		s.SlotsPruned, s.CheckpointsServed, s.CheckpointsInstalled, s.LiveSlots, s.Applied, s.Floor)
}

// Node multiplexes consensus instances for one process.
type Node struct {
	cfg         Config
	maj         int
	resendEvery time.Duration // max(Poll, minResendInterval)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	counters Counters

	// appliedWM mirrors nextApply-1 so the send path can stamp outgoing
	// messages with the applied watermark without taking mu.
	appliedWM atomic.Uint64

	mu        sync.Mutex
	stopped   bool                         // guarded by mu
	instances map[uint64]*instance         // guarded by mu: live slot instances
	slots     map[uint64][]byte            // guarded by mu: decided slots
	regs      map[msg.RegKey][]byte        // guarded by mu: decided registers
	subs      map[msg.RegKey][]chan []byte // guarded by mu: register watchers

	// Batch-log application state: decided slots are applied strictly in
	// slot order; nextApply is the first unapplied slot.
	//
	// Retention: without RetainSlots, decided slots are kept forever —
	// a laggard's gap proposal is answered with the original decision, and
	// evicting a slot would otherwise let a fresh quorum re-decide it
	// differently. With RetainSlots > 0 the watermark protocol truncates
	// the applied prefix instead: slots at or below floor have been applied
	// by every live peer (minus the retention tail) and are pruned, and any
	// question about them is answered with checkpoint state transfer — the
	// laggard fast-forwards past the floor rather than re-deciding, so
	// agreement is preserved without unbounded memory.
	nextApply uint64 // guarded by mu
	// floor is the truncation floor: every slot <= floor has been pruned
	// (or was never held) and is served via Checkpoint. Invariant:
	// floor < nextApply. Guarded by mu.
	floor uint64
	// peerWM is the latest applied watermark heard from each peer, via the
	// piggyback on consensus messages and heartbeats. Guarded by mu.
	peerWM map[id.NodeID]uint64
	// lastProbe throttles the laggard-side gap probes sent when a peer's
	// watermark shows this node has fallen behind. Guarded by mu.
	lastProbe time.Time
	// lastCkpt throttles checkpoint serving per asking peer (a blocked
	// laggard retransmits its gap proposal on a timer); ckptCache reuses
	// one assembled snapshot for as long as the floor it was cut at stands
	// (see checkpointLocked). All three guarded by mu.
	lastCkpt       map[id.NodeID]time.Time
	ckptCache      *msg.Checkpoint
	ckptCacheFloor uint64
}

// New creates a consensus node. Call Stop when done to release its
// goroutine.
func New(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	if cfg.RetainSlots < 0 {
		cfg.RetainSlots = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now //etxlint:allow wallclock — the injected clock's default; every other read goes through n.now
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:         cfg,
		maj:         len(cfg.Peers)/2 + 1,
		resendEvery: max(cfg.Poll, minResendInterval),
		ctx:         ctx,
		cancel:      cancel,
		instances:   make(map[uint64]*instance),
		slots:       make(map[uint64][]byte),
		regs:        make(map[msg.RegKey][]byte),
		subs:        make(map[msg.RegKey][]chan []byte),
		nextApply:   1,
		peerWM:      make(map[id.NodeID]uint64, len(cfg.Peers)),
		lastCkpt:    make(map[id.NodeID]time.Time, len(cfg.Peers)),
	}
	notif := cfg.Detector.(fd.Notifier)
	fdCh := make(chan struct{}, 1)
	notif.Subscribe(fdCh)
	n.wg.Add(1)
	go n.loop(notif, fdCh)
	return n, nil
}

// now reads the injected clock.
func (n *Node) now() time.Time { return n.cfg.Now() }

// loop is the node's one goroutine. A suspicion transition steps every live
// instance (a phase blocked on the coordinator may nack now, or an acked
// participant move on); a tick gives every instance its retransmission
// check.
func (n *Node) loop(notif fd.Notifier, fdCh chan struct{}) {
	defer n.wg.Done()
	defer notif.Unsubscribe(fdCh)
	tick := time.NewTicker(n.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-fdCh:
			n.stepAll((*instance).stepLocked)
		case <-tick.C:
			n.stepAll((*instance).resendLocked)
		case <-n.ctx.Done():
			return
		}
	}
}

// stepAll runs step on every live instance under one hold of n.mu, then
// flushes what they produced.
func (n *Node) stepAll(step func(*instance, *outbox)) {
	var o outbox
	n.mu.Lock()
	for _, inst := range n.instances {
		step(inst, &o)
	}
	n.mu.Unlock()
	n.flush(&o)
}

// Stop ends the node's goroutine, fails pending Proposes with ErrStopped,
// and turns away every later message and proposal.
func (n *Node) Stop() {
	n.mu.Lock()
	n.stopped = true
	n.mu.Unlock()
	n.cancel()
	n.wg.Wait()
}

// Done is closed when the node stops; callers waiting on Watch channels
// select on it to observe shutdown.
func (n *Node) Done() <-chan struct{} { return n.ctx.Done() }

// Stats returns a snapshot of the node's protocol counters.
func (n *Node) Stats() Stats {
	live := n.counters.LiveSlots.Load()
	if live < 0 {
		live = 0
	}
	n.mu.Lock()
	floor := n.floor
	n.mu.Unlock()
	return Stats{
		Instances:            n.counters.Instances.Load(),
		Proposes:             n.counters.Proposes.Load(),
		Rounds:               n.counters.Rounds.Load(),
		Messages:             n.counters.Messages.Load(),
		FastPath:             n.counters.FastPath.Load(),
		BatchOps:             n.counters.BatchOps.Load(),
		Resends:              n.counters.Resends.Load(),
		SlotsPruned:          n.counters.SlotsPruned.Load(),
		CheckpointsServed:    n.counters.CkptServed.Load(),
		CheckpointsInstalled: n.counters.CkptInstalled.Load(),
		LiveSlots:            uint64(live),
		Applied:              n.appliedWM.Load(),
		Floor:                floor,
	}
}

// Applied returns the node's applied batch-log watermark: the highest slot
// whose register effects have been applied locally (nextApply-1). This is
// the value piggybacked on outgoing consensus messages and heartbeats.
func (n *Node) Applied() uint64 { return n.appliedWM.Load() }

// Floor returns the truncation floor: every batch-log slot at or below it
// has been pruned and is served by checkpoint state transfer.
func (n *Node) Floor() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.floor
}

// Propose submits val for batch-log slot key and blocks until the slot
// decides (returning the decided value, which may differ from val), the
// caller's ctx is cancelled, or the node stops. Any other key is refused
// with ErrNotSlot.
func (n *Node) Propose(ctx context.Context, key msg.RegKey, val []byte) ([]byte, error) {
	if key.Array != msg.RegBatch {
		return nil, fmt.Errorf("propose %s: %w", key, ErrNotSlot)
	}
	n.mu.Lock()
	if v, decided := n.slots[key.Slot]; decided {
		n.mu.Unlock()
		return v, nil
	}
	if key.Slot <= n.floor {
		n.mu.Unlock()
		return nil, fmt.Errorf("propose %s: %w", key, ErrSlotTruncated)
	}
	inst := n.instanceLocked(key)
	if inst == nil {
		n.mu.Unlock()
		return nil, ErrStopped
	}
	n.counters.Proposes.Inc()
	var o outbox
	inst.proposeLocked(val, &o)
	n.mu.Unlock()
	n.flush(&o)
	select {
	case <-inst.done:
		return inst.result, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("consensus: propose %s: %w", key, ctx.Err())
	case <-n.ctx.Done():
		return nil, ErrStopped
	}
}

// Decided returns the decided value of a register or a slot, if any. It
// implements the weak read of the paper's wo-register: it may lag behind a
// decision made elsewhere — the coordinator's broadcast, or the pull of a
// node it missed, brings it here.
func (n *Node) Decided(key msg.RegKey) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if key.Array == msg.RegBatch {
		v, ok := n.slots[key.Slot]
		return v, ok
	}
	v, ok := n.regs[key]
	return v, ok
}

// Watch returns a channel that receives the decided value of register key
// (buffered; at most one send). If the register already decided, the value
// is delivered immediately.
func (n *Node) Watch(key msg.RegKey) <-chan []byte {
	ch := make(chan []byte, 1)
	n.mu.Lock()
	if v, ok := n.regs[key]; ok {
		n.mu.Unlock()
		ch <- v
		return ch
	}
	n.subs[key] = append(n.subs[key], ch)
	n.mu.Unlock()
	return ch
}

// Abandon discards a register: its decided value and any watchers. This
// implements the garbage collection the paper defers in Section 5: it is
// only safe once the client can no longer retransmit the corresponding
// request (the at-most-once guarantee is conditioned on exactly that, as the
// paper notes), and under it nobody is waiting on the register. Slots are
// never abandoned (their lifecycle is the watermark protocol's).
//
// Known (inherited) race: a CDecision for the retired register still in
// flight at Abandon time re-records it on arrival — a forgotten key is
// indistinguishable from a never-seen one, and treating it as the latter is
// what laggard help depends on. The leak is one entry per such message, and
// the window is the transport's in-flight horizon, not the request lifetime;
// distinguishing the cases would take tombstones, i.e. the memory this call
// exists to free.
func (n *Node) Abandon(key msg.RegKey) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.regs, key)
	delete(n.subs, key)
}

// LowestUndecidedSlot returns the lowest batch-log slot this node has no
// decision for — the slot a cohort sequencer should propose its next batch
// at. An application gap (a decided slot blocked behind a missing one) is
// returned first, so a proposal there doubles as the gap-fill probe: peers
// that already decided the slot answer with its decision.
func (n *Node) LowestUndecidedSlot() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.nextApply
	for {
		if _, ok := n.slots[s]; !ok {
			return s
		}
		s++
	}
}

// Keys returns every register this node holds a decision for. The cleaning
// thread scans this in place of the paper's unbounded register-array walk.
func (n *Node) Keys() []msg.RegKey {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]msg.RegKey, 0, len(n.regs))
	for k := range n.regs {
		out = append(out, k)
	}
	return out
}

// InstanceState reports the live round and coordinator of an undecided slot
// (liveness diagnostics: DebugTry uses it to show where a stuck register
// write is blocked). ok is false when no instance is running.
func (n *Node) InstanceState(slot uint64) (round uint32, coord id.NodeID, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	inst := n.instances[slot]
	if inst == nil {
		return 0, id.NodeID{}, false
	}
	r := max(inst.round, 1) // round 0: still acquiring an estimate, round 1 is next
	return r, inst.coord(r), true
}

// Handle ingests one consensus message (Estimate, Propose, CAck, CNack,
// CDecision, Checkpoint); the owning node's demux loop calls it. The applied
// watermark piggybacked on every consensus message feeds the truncation
// protocol as a side effect.
func (n *Node) Handle(from id.NodeID, p msg.Payload) {
	//etxlint:allow kindswitch — Handle's contract is the five consensus kinds; the owning demux routes everything else
	switch m := p.(type) {
	case msg.CDecision:
		// Record first: a slot decision carries the sender's watermark,
		// which already covers the slot itself and must not read as a gap.
		n.learn(m.Reg, m.Val)
		n.ObserveWatermark(from, m.WM)
	case msg.Estimate:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.Propose:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.CAck:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.CNack:
		n.ObserveWatermark(from, m.WM)
		n.dispatch(from, m.Reg, p)
	case msg.Checkpoint:
		n.installCheckpoint(m)
	}
}

// gapBurst caps how many consecutive decided slots a node replays in answer
// to one batch-log gap probe: a laggard within the retention tail catches up
// a window of slots per probe instead of one.
const gapBurst = 32

// probeInterval throttles the laggard-side gap probes (watermark
// observations arrive with every heartbeat and consensus message).
const probeInterval = 25 * time.Millisecond

// ckptServeInterval throttles checkpoint serving per asking peer: a blocked
// laggard retransmits on a timer, and every retransmission would otherwise
// ship a full register snapshot.
const ckptServeInterval = 50 * time.Millisecond

// ObserveWatermark records a peer's applied batch-log watermark (piggybacked
// on consensus messages and forwarded by the demux loop from heartbeats),
// advances truncation if the cluster-wide minimum moved, and — when the
// watermark shows this node has fallen behind — probes the peer for the
// first unapplied slot. The probe is an empty round-1 estimate: a peer that
// still holds the slot answers with the decision (and a burst of successors),
// one that has truncated it answers with a checkpoint.
func (n *Node) ObserveWatermark(from id.NodeID, wm uint64) {
	if wm == 0 || from == n.cfg.Self {
		return
	}
	n.mu.Lock()
	if wm > n.peerWM[from] {
		// Watermarks are monotone; truncation only needs to re-evaluate
		// when one advances.
		n.peerWM[from] = wm
		n.gcLocked()
	}
	// The probe re-arms on every observation, advanced or not: in a
	// quiescent cluster the peers' watermarks sit still while their
	// heartbeats keep arriving, and a laggard more than one burst behind
	// (or one whose previous probe fell to a fair-loss link) must keep
	// asking until it has caught up.
	var probe msg.Payload
	if wm >= n.nextApply && n.now().Sub(n.lastProbe) >= probeInterval {
		// The peer has applied our first unapplied slot: ask about it.
		n.lastProbe = n.now()
		probe = msg.Estimate{Reg: msg.SlotKey(n.nextApply), Round: 1, TS: 0, Est: msg.EncodeRegOps(nil)}
	}
	n.mu.Unlock()
	if probe != nil {
		n.send(from, probe)
	}
}

// gcLocked advances the truncation floor to the minimum applied watermark
// across live peers minus the retention tail, pruning every decided slot it
// passes. Suspected peers do not hold the floor back (a crashed application
// server never recovers in this model; a falsely suspected one catches up
// through checkpoint transfer). Caller holds n.mu.
func (n *Node) gcLocked() {
	if n.cfg.RetainSlots <= 0 {
		return
	}
	min := n.nextApply - 1
	for _, p := range n.cfg.Peers {
		if p == n.cfg.Self {
			continue
		}
		if n.cfg.Detector.Suspects(p) {
			continue
		}
		if wm := n.peerWM[p]; wm < min {
			min = wm
		}
	}
	if min <= uint64(n.cfg.RetainSlots) {
		return
	}
	n.pruneLocked(min - uint64(n.cfg.RetainSlots))
}

// pruneLocked drops every decided slot at or below to and raises the floor
// there; a floor already at or above to stays. Caller holds n.mu.
func (n *Node) pruneLocked(to uint64) {
	if to <= n.floor {
		return
	}
	var pruned uint64
	for s := n.floor + 1; s <= to; s++ {
		if _, ok := n.slots[s]; ok {
			delete(n.slots, s)
			pruned++
		}
	}
	n.floor = to
	n.counters.LiveSlots.Add(-int64(pruned))
	n.counters.SlotsPruned.Add(pruned)
}

// checkpointLocked assembles the state-transfer answer for a pruned slot:
// the floor plus every register effect this node holds. The snapshot covers
// all applied slots (provenance per slot is not tracked); its size is
// bounded by request retirement (Abandon), the per-register GC layered above.
//
// The snapshot is cached per floor value: any snapshot taken while the
// floor sits at F already contains every effect of slots <= F (they were
// applied before the floor could advance to F), so re-serving it to the
// next asker is as safe as rebuilding — and the rebuild is O(live
// registers) under the node-wide lock, which retrying laggards would
// otherwise pay dozens of times a second. Caller holds n.mu.
func (n *Node) checkpointLocked() msg.Checkpoint {
	if n.ckptCache != nil && n.ckptCacheFloor == n.floor {
		return *n.ckptCache
	}
	ck := msg.Checkpoint{Floor: n.floor, Regs: make([]msg.RegOp, 0, len(n.regs))}
	for k, v := range n.regs {
		ck.Regs = append(ck.Regs, msg.RegOp{Reg: k, Val: v})
	}
	n.ckptCache, n.ckptCacheFloor = &ck, n.floor
	return ck
}

// installCheckpoint fast-forwards a laggard past a peer's truncation floor:
// the shipped register effects are installed (first write wins, so anything
// already decided locally is untouched), the application cursor jumps to
// floor+1, stranded slot instances at or below the floor are finished (their
// proposers re-enqueue at a live slot), and any decided slots waiting above
// the old gap are applied.
func (n *Node) installCheckpoint(m msg.Checkpoint) {
	n.mu.Lock()
	if m.Floor < n.nextApply {
		// Nothing to skip: we are at or past this peer's floor already.
		n.mu.Unlock()
		return
	}
	var o outbox
	for _, op := range m.Regs {
		n.decideLocked(op, &o)
	}
	// Drop slots we hold that are now below the floor (decided but never
	// applied: the gap in front of them is what stranded us).
	n.pruneLocked(m.Floor)
	n.nextApply = m.Floor + 1
	// Slot instances at or below the floor can never decide now (every
	// up-to-date peer answers them with a checkpoint): finish them so their
	// proposing sequencers re-enqueue the surviving ops at a live slot.
	for s, inst := range n.instances {
		if s <= n.floor {
			delete(n.instances, s)
			o.effects = append(o.effects, decideEffect{val: msg.EncodeRegOps(nil), inst: inst})
		}
	}
	n.applyLocked(&o)
	n.gcLocked()
	n.mu.Unlock()

	n.counters.CkptInstalled.Inc()
	n.flush(&o)
}

// dispatch routes a phase message to its slot's instance, answering it
// instead when the slot is decided (decision replay) or truncated
// (checkpoint). A message keyed by a register is dropped: registers have no
// instances.
func (n *Node) dispatch(from id.NodeID, key msg.RegKey, p msg.Payload) {
	if key.Array != msg.RegBatch {
		return
	}
	n.mu.Lock()
	v, decided := n.slots[key.Slot]
	truncated := key.Slot <= n.floor
	if k := p.Kind(); (k == msg.KindAck || k == msg.KindNack) && (decided || truncated) {
		// A reply reaching a finished instance is a late original: the
		// deciding coordinator's decision is already on its way to the
		// sender. A participant that lost it pulls with its tick
		// re-ack, an estimate, which is answered below.
		n.mu.Unlock()
		return
	}
	if truncated {
		// The slot is truncated history: state transfer instead of replay.
		if n.now().Sub(n.lastCkpt[from]) < ckptServeInterval {
			n.mu.Unlock()
			return
		}
		n.lastCkpt[from] = n.now()
		ck := n.checkpointLocked()
		n.mu.Unlock()
		n.counters.CkptServed.Inc()
		n.send(from, ck)
		return
	}
	if decided {
		// Help laggards: answer an estimate or proposal for a decided slot
		// with the decision itself, and replay a burst of consecutive
		// decided slots: the asker is applying in slot order, so the
		// successors are its next questions.
		answers := []msg.CDecision{{Reg: key, Val: v}}
		for s := key.Slot + 1; len(answers) < gapBurst; s++ {
			v2, ok := n.slots[s]
			if !ok {
				break
			}
			answers = append(answers, msg.CDecision{Reg: msg.SlotKey(s), Val: v2})
		}
		n.mu.Unlock()
		for _, a := range answers {
			n.send(from, a)
		}
		return
	}
	var o outbox
	if inst := n.instanceLocked(key); inst != nil {
		inst.receive(from, p)
		inst.stepLocked(&o)
	}
	n.mu.Unlock()
	n.flush(&o)
}

// outbox collects what one hold of n.mu produces, for flush to carry out
// once the lock is released: the remote messages in the order they were
// produced, then the effects of recorded decisions.
type outbox struct {
	msgs    []outMsg
	effects []decideEffect
}

type outMsg struct {
	to id.NodeID
	p  msg.Payload
}

// decideEffect is one deferred side effect of recording a decision: a slot
// instance to finish, or a register's watchers to wake.
type decideEffect struct {
	val  []byte
	inst *instance
	subs []chan []byte
}

// flush sends o's messages, then finishes its instances and wakes its
// watchers. A deciding coordinator's decision is among the messages, so it
// leaves before the deciding instance finishes: a proposer that chains
// instances (the cohort sequencer) cannot put slot s+1 on a link ahead of
// slot s's decision, and over FIFO links no peer holds decided slots above
// a gap of that proposer's making.
func (n *Node) flush(o *outbox) {
	for _, m := range o.msgs {
		n.send(m.to, m.p)
	}
	for _, e := range o.effects {
		if e.inst != nil {
			e.inst.result = e.val
			close(e.inst.done)
		}
		for _, ch := range e.subs {
			ch <- e.val
		}
	}
}

// learn records a decision received from a peer (Handle). It is recorded
// only: the deciding coordinator already sent it to every other peer, and a
// peer it did not reach pulls it (re-ack, round r+1, or the slot gap probe),
// so a learner never echoes. A slot decision triggers in-order application
// of every ready slot: the registers named by the batches decide
// first-write-wins, resolving their waiters, without a message of their own
// (the slot decision carries them). A register decision is a peer
// sequencer's answer to a forwarded write whose register it already holds.
func (n *Node) learn(key msg.RegKey, val []byte) {
	var o outbox
	n.mu.Lock()
	if key.Array == msg.RegBatch {
		n.recordLocked(key, val, &o)
		// Applying slots moved our watermark; the floor may follow.
		n.gcLocked()
	} else {
		n.decideLocked(msg.RegOp{Reg: key, Val: val}, &o)
	}
	n.mu.Unlock()
	n.flush(&o)
}

// recordLocked stores a slot decision, ends the slot's instance (its
// per-round tallies go with it; the decided value stays) and applies every
// slot the decision makes ready, collecting the deferred side effects in o.
// A slot is recorded at most once. Caller holds n.mu.
func (n *Node) recordLocked(key msg.RegKey, val []byte, o *outbox) {
	if key.Slot <= n.floor {
		// A straggling replay of a truncated slot (e.g. a tail-retaining
		// peer's CDecision racing a checkpoint install): its effects are
		// already part of the applied state; re-recording would leak the
		// slot below the floor forever.
		return
	}
	if _, ok := n.slots[key.Slot]; ok {
		return
	}
	n.slots[key.Slot] = val
	n.counters.LiveSlots.Inc()
	if inst := n.instances[key.Slot]; inst != nil {
		delete(n.instances, key.Slot)
		o.effects = append(o.effects, decideEffect{val: val, inst: inst})
	}
	n.applyLocked(o)
}

// applyLocked applies every decided-and-ready slot in slot order, appending
// side effects to o. Each register op decides its register unless an
// earlier slot (or a register decision learned from a peer) got there
// first — the first-write-wins race is resolved by the agreed slot order, so
// every node computes the same winner. Caller holds n.mu.
func (n *Node) applyLocked(o *outbox) {
	for {
		raw, ok := n.slots[n.nextApply]
		if !ok {
			break
		}
		if ops, err := msg.DecodeRegOps(raw); err == nil {
			held := len(n.regs)
			for _, op := range ops {
				n.decideLocked(op, o)
			}
			n.counters.BatchOps.Add(uint64(len(n.regs) - held))
		}
		n.nextApply++
	}
	n.appliedWM.Store(n.nextApply - 1)
}

// decideLocked decides a register first-write-wins — one already decided
// keeps its value — and appends its waiters, if any, to o. Registers
// decided here send nothing (the slot decision carries them). Caller holds
// n.mu.
func (n *Node) decideLocked(op msg.RegOp, o *outbox) {
	if _, dup := n.regs[op.Reg]; dup {
		return
	}
	n.regs[op.Reg] = op.Val
	if subs := n.subs[op.Reg]; len(subs) > 0 {
		delete(n.subs, op.Reg)
		o.effects = append(o.effects, decideEffect{val: op.Val, subs: subs})
	}
}

// instanceLocked returns the live instance of slot key, creating it if
// needed; nil once the node has stopped. The callers have checked that the
// slot is neither decided nor truncated. Caller holds n.mu.
func (n *Node) instanceLocked(key msg.RegKey) *instance {
	if n.stopped {
		return nil
	}
	inst, ok := n.instances[key.Slot]
	if !ok {
		inst = &instance{node: n, key: key, done: make(chan struct{})}
		n.instances[key.Slot] = inst
		n.counters.Instances.Inc()
	}
	return inst
}

// send transmits to another node, stamped with the applied watermark (the
// truncation protocol's piggyback). Its callers never address this node:
// the only messages a node sends itself are an instance's own, and those
// are tallied in place (instance.emit).
func (n *Node) send(to id.NodeID, p msg.Payload) {
	n.counters.Messages.Inc()
	_ = n.cfg.Send(to, n.stamp(p))
}

// stamp copies the applied watermark into an outgoing consensus payload.
func (n *Node) stamp(p msg.Payload) msg.Payload {
	wm := n.appliedWM.Load()
	if wm == 0 {
		return p
	}
	//etxlint:allow kindswitch — stamping only rewrites the WM-bearing consensus kinds; others pass through below
	switch m := p.(type) {
	case msg.Estimate:
		m.WM = wm
		return m
	case msg.Propose:
		m.WM = wm
		return m
	case msg.CAck:
		m.WM = wm
		return m
	case msg.CNack:
		m.WM = wm
		return m
	case msg.CDecision:
		m.WM = wm
		return m
	}
	return p
}

// --- instance ---------------------------------------------------------------

type estVal struct {
	val []byte
	ts  uint32
}

// phase is what a live instance waits for; stepLocked moves it on as far as
// its input allows.
type phase uint8

const (
	acquiring     phase = iota // no estimate yet: a local proposal or a peer's value
	gathering                  // coordinator, phase 2: a majority of estimates
	awaitProposal              // phase 3: the coordinator's proposal, or to suspect it
	awaitDecision              // acked participant: the decision, a suspicion or a higher round
	tallying                   // coordinator, phase 4: a majority of acks, or of replies
)

// instance is one consensus execution: plain state under node.mu, advanced
// by stepLocked on whichever goroutine brings it input, and removed from
// the node by the decision (recordLocked) or a checkpoint install. Proposers
// wait on done.
type instance struct {
	node *Node
	key  msg.RegKey

	done   chan struct{} // closed by flush once the decision has been sent
	result []byte        // written before done closes

	// Protocol state; read and written under node.mu only. The per-round
	// tally maps are allocated on first use: a fast-path instance that never
	// tallies estimates should not pay for them (instances are created
	// thousands of times a second on the hot path).
	phase      phase
	round      uint32 // 0 until the estimate is acquired
	est        []byte
	ts         uint32
	quietSince time.Time // last input or round start; the resend clock
	estimates  map[uint32]map[id.NodeID]estVal
	proposals  map[uint32][]byte
	replies    map[uint32]map[id.NodeID]bool // sender -> isAck
}

func (inst *instance) coord(r uint32) id.NodeID {
	peers := inst.node.cfg.Peers
	return peers[int((r-1)%uint32(len(peers)))]
}

// proposeLocked makes val the estimate of an instance that has none yet (the
// first local proposal wins; a later one only waits for the decision) and
// steps it. Caller holds inst.node.mu.
func (inst *instance) proposeLocked(val []byte, o *outbox) {
	inst.quietSince = inst.node.now()
	if inst.phase == acquiring {
		inst.est, inst.ts = val, 0
		inst.startRound(o)
	}
	inst.stepLocked(o)
}

// receive tallies one phase message, from a peer (Handle fenced its
// watermark) or from this instance itself (emit).
func (inst *instance) receive(from id.NodeID, p msg.Payload) {
	inst.quietSince = inst.node.now()
	//etxlint:allow kindswitch — an instance only ever receives the four phase messages dispatch routes to it
	switch p := p.(type) {
	case msg.Estimate:
		inst.estimate(p.Round, from, estVal{val: p.Est, ts: p.TS})
		if p.TS == p.Round {
			// A phase-1 estimate carries a timestamp below its round; one
			// locked at its own round is a participant's re-ack (see
			// resendLocked), and counts as the ack it repeats.
			inst.reply(p.Round, from, true)
		}
	case msg.Propose:
		inst.proposal(p.Round, p.Val)
	case msg.CAck:
		inst.reply(p.Round, from, true)
	case msg.CNack:
		inst.reply(p.Round, from, false)
	}
}

// estimate records from's round estimate; the first one per sender counts.
func (inst *instance) estimate(round uint32, from id.NodeID, ev estVal) {
	byNode, ok := inst.estimates[round]
	if !ok {
		byNode = make(map[id.NodeID]estVal)
		if inst.estimates == nil {
			inst.estimates = make(map[uint32]map[id.NodeID]estVal)
		}
		inst.estimates[round] = byNode
	}
	if _, dup := byNode[from]; !dup {
		byNode[from] = ev
	}
}

// proposal records the coordinator's proposal for round.
func (inst *instance) proposal(round uint32, val []byte) {
	if _, dup := inst.proposals[round]; dup {
		return
	}
	if inst.proposals == nil {
		inst.proposals = make(map[uint32][]byte)
	}
	inst.proposals[round] = val
}

func (inst *instance) reply(round uint32, from id.NodeID, ack bool) {
	byNode, ok := inst.replies[round]
	if !ok {
		byNode = make(map[id.NodeID]bool)
		if inst.replies == nil {
			inst.replies = make(map[uint32]map[id.NodeID]bool)
		}
		inst.replies[round] = byNode
	}
	if _, dup := byNode[from]; !dup {
		byNode[from] = ack
	}
}

// emit queues one of this instance's protocol messages. A message to self
// never touches the network: it is tallied at once, and the step loop that
// emitted it acts on it next — so a register write by the round-1
// coordinator costs exactly one network round trip, as the paper's analysis
// assumes.
func (inst *instance) emit(o *outbox, to id.NodeID, p msg.Payload) {
	if to == inst.node.cfg.Self {
		inst.receive(to, p)
		return
	}
	o.msgs = append(o.msgs, outMsg{to: to, p: p})
}

// broadcast emits p to every peer, this node included.
func (inst *instance) broadcast(o *outbox, p msg.Payload) {
	for _, to := range inst.node.cfg.Peers {
		inst.emit(o, to, p)
	}
}

// startRound enters the next round: phase 1, or the round-1 coordinator's
// fast path. In round 1 a coordinator can skip gathering estimates: no value
// can be locked before round 1, so its own estimate is safe to propose
// directly. This is the optimization the paper's analysis assumes ("in a
// nice run, it takes only a round trip for the first primary to write into
// the register"); the fast-path proposal folds in any round-1 estimates
// already received (all timestamps are 0, so a merged batch is as proposable
// as any single one). In every other case the estimate is broadcast to all
// peers — the coordinator tallies it, and it simultaneously announces the
// instance to passive replicas so that they join and keep every round live.
func (inst *instance) startRound(o *outbox) {
	n := inst.node
	inst.round++
	inst.quietSince = n.now()
	n.counters.Rounds.Inc()
	r, c := inst.round, inst.coord(inst.round)
	_, haveProposal := inst.proposals[r]
	switch {
	case c == n.cfg.Self && r == 1:
		n.counters.FastPath.Inc()
		inst.broadcast(o, msg.Propose{Reg: inst.key, Round: r, Val: mergeBatches(inst.est, inst.estimates[r])})
	case haveProposal:
		// The round's proposal is already in hand (we joined late): our
		// phase-1 estimate could no longer influence it, so skip the
		// broadcast and go to phase 3.
	default:
		inst.broadcast(o, msg.Estimate{Reg: inst.key, Round: r, TS: inst.ts, Est: inst.est})
		if c == n.cfg.Self {
			inst.phase = gathering
			return
		}
	}
	inst.phase = awaitProposal
}

// nextRound releases the finished round's tallies and enters the next.
func (inst *instance) nextRound(o *outbox) {
	r := inst.round
	delete(inst.estimates, r)
	delete(inst.replies, r)
	delete(inst.proposals, r)
	inst.startRound(o)
}

// stepLocked advances the instance through the CT round structure as far as
// its input allows, queueing what it sends in o; it returns when the
// instance waits for more input or has decided. Caller holds inst.node.mu.
func (inst *instance) stepLocked(o *outbox) {
	n := inst.node
	self := n.cfg.Self
	for {
		r := inst.round
		switch inst.phase {
		case acquiring:
			// A passive participant adopts the first value any incoming
			// estimate or proposal carries.
			if !inst.adoptFromMessages() {
				return
			}
			inst.startRound(o)

		case gathering:
			// Phase 2: propose the freshest of a majority of estimates.
			ests := inst.estimates[r]
			if len(ests) < n.maj {
				return
			}
			best := estVal{}
			first := true
			for _, ev := range ests {
				if first || ev.ts > best.ts {
					best = ev
					first = false
				}
			}
			val := best.val
			if best.ts == 0 {
				// No gathered estimate carries a lock (a decided value
				// would have locked a majority, and any majority intersects
				// ours), so the union of the proposed batches is safe to
				// propose — concurrent cohorts merge instead of fighting
				// over the slot.
				val = mergeBatches(val, ests)
			}
			inst.broadcast(o, msg.Propose{Reg: inst.key, Round: r, Val: val})
			inst.phase = awaitProposal

		case awaitProposal:
			// Phase 3 (everyone): adopt the coordinator's proposal, or nack
			// if the coordinator is suspected.
			c := inst.coord(r)
			if v, ok := inst.proposals[r]; ok {
				inst.est, inst.ts = v, r
				inst.emit(o, c, msg.CAck{Reg: inst.key, Round: r})
				inst.phase = tallying
				if c != self {
					inst.phase = awaitDecision
				}
				continue
			}
			if c == self || !n.cfg.Detector.Suspects(c) {
				return
			}
			inst.emit(o, c, msg.CNack{Reg: inst.key, Round: r})
			inst.nextRound(o)

		case awaitDecision:
			// Practical refinement over textbook CT: a participant that
			// acked waits for the decision before starting the next round,
			// advancing early only if it comes to suspect the coordinator
			// or sees evidence of a higher round (the coordinator moved on
			// after a failed round). This removes the round-cycling chatter
			// of eager participants without touching liveness: every exit
			// condition is driven by a message that the assumptions
			// guarantee, or by the detector.
			if !n.cfg.Detector.Suspects(inst.coord(r)) && !inst.sawRoundAbove(r) {
				return
			}
			inst.nextRound(o)

		case tallying:
			// Phase 4 (coordinator): a majority of acks decides; a majority
			// of replies without one fails the round.
			acks, nacks := 0, 0
			for _, isAck := range inst.replies[r] {
				if isAck {
					acks++
				} else {
					nacks++
				}
			}
			switch {
			case acks >= n.maj:
				val := inst.proposals[r]
				for _, p := range n.cfg.Peers {
					if p != self {
						o.msgs = append(o.msgs, outMsg{to: p, p: msg.CDecision{Reg: inst.key, Val: val}})
					}
				}
				n.recordLocked(inst.key, val, o)
				n.gcLocked()
				return
			case acks+nacks >= n.maj:
				inst.nextRound(o)
			default:
				return
			}
		}
	}
}

// resendLocked is the tick's retransmission. Consensus assumes reliable
// channels, but the links underneath are fair-loss (a transient partition
// silently drops messages), and a dropped estimate, proposal or ack would
// otherwise stall the instance forever despite a live majority. An instance
// that has heard nothing for a full resend interval repeats what its phase
// waits on an answer to; a failure-free instance hears from its peers well
// within that and never resends. Caller holds inst.node.mu.
func (inst *instance) resendLocked(o *outbox) {
	n := inst.node
	now := n.now()
	if inst.phase == acquiring || now.Sub(inst.quietSince) < n.resendEvery {
		return
	}
	inst.quietSince = now
	n.counters.Resends.Inc()
	r := inst.round
	switch inst.phase {
	case gathering, awaitProposal:
		// Re-announce the round: our estimate may never have reached the
		// coordinator (its phase-2 gather would stall on a live majority),
		// a participant whose estimate fell to a fair-loss link re-joins
		// and re-answers, and a proposal dropped on its way to us is pulled
		// (a decided coordinator answers chatter with the decision).
		inst.broadcast(o, msg.Estimate{Reg: inst.key, Round: r, TS: inst.ts, Est: inst.est})
	case awaitDecision:
		// Our ack (or the decision, which only the coordinator sends) may
		// have been lost: re-ack, as an estimate locked at this round. A
		// coordinator still tallying counts it as the ack; one that
		// already decided answers it with the decision — the laggard's
		// pull.
		inst.emit(o, inst.coord(r), msg.Estimate{Reg: inst.key, Round: r, TS: r, Est: inst.est})
	case tallying:
		// A dropped proposal leaves participants blocked in phase 3 with
		// nothing to answer: re-propose.
		inst.broadcast(o, msg.Propose{Reg: inst.key, Round: r, Val: inst.proposals[r]})
	}
}

// sawRoundAbove reports whether any message for a round greater than r has
// been received (evidence that the group moved past r).
func (inst *instance) sawRoundAbove(r uint32) bool {
	for round := range inst.estimates {
		if round > r {
			return true
		}
	}
	for round := range inst.proposals {
		if round > r {
			return true
		}
	}
	for round := range inst.replies {
		if round > r {
			return true
		}
	}
	return false
}

// adoptFromMessages bootstraps a passive participant's estimate from any
// value-carrying message already received, reporting whether it found one.
func (inst *instance) adoptFromMessages() bool {
	for _, byNode := range inst.estimates {
		for _, ev := range byNode {
			inst.est, inst.ts = ev.val, 0
			return true
		}
	}
	for _, v := range inst.proposals {
		inst.est, inst.ts = v, 0
		return true
	}
	return false
}

// mergeBatches folds every timestamp-0 batch estimate into base, keeping the
// first op seen per register (base's ops win ties, so the coordinator's own
// cohort keeps its internal order). A value that fails to parse contributes
// nothing; if base itself is corrupt it is returned unchanged — merging is an
// inclusion optimization, never a correctness requirement.
func mergeBatches(base []byte, ests map[id.NodeID]estVal) []byte {
	ops, err := msg.DecodeRegOps(base)
	if err != nil {
		return base
	}
	seen := make(map[msg.RegKey]bool, len(ops))
	for _, op := range ops {
		seen[op.Reg] = true
	}
	merged := false
	for _, ev := range ests {
		if ev.ts != 0 {
			continue
		}
		more, err := msg.DecodeRegOps(ev.val)
		if err != nil {
			continue
		}
		for _, op := range more {
			if seen[op.Reg] {
				continue
			}
			seen[op.Reg] = true
			ops = append(ops, op)
			merged = true
		}
	}
	if !merged {
		return base
	}
	return msg.EncodeRegOps(ops)
}

// Package woregister implements the paper's write-once registers
// (Section 4): consensus-like abstractions "that capture the nice intuition
// of CD-ROMs — they can be written once but read several times".
//
// One Registers value runs on each application server, layered on that
// server's consensus node, exactly as the paper prescribes: "every
// application server would have a copy of the register ... writing a value
// comes down to proposing that value for the consensus protocol; to read a
// value, a process simply returns the decision value received from the
// consensus protocol, if any, and returns ⊥ if no consensus has been
// triggered".
//
// Two register arrays exist, keyed by try (ResultID): regA[j] holds the
// identity of the application server executing try j, and regD[j] holds the
// decision (result, outcome) of try j.
//
// # The sequencer is the register
//
// A write is proposed as an op of a batch-consensus slot. A per-server
// sequencer collects concurrent writes into a cohort of at most the cap and
// proposes it as the next slot; the consensus layer applies decided slots in
// slot order, deciding each register first-write-wins, and every caller
// resolves with its own register's outcome. Per-register semantics are the
// paper's — first write wins, reads observe decisions — because the slot
// order is agreed, so the winner of any write race is the same on every
// replica. With a cap of 1 (New, and core with batching off) every slot
// carries one write: the paper's one consensus instance per write. A server
// that is not the preferred sequencer (the first unsuspected application
// server) forwards its pending writes there instead of contending for slots,
// so a saturated primary folds remote writes into its own batches; consensus
// still arbitrates safely when two servers sequence concurrently, and
// forwarding retries re-route around a crashed sequencer.
package woregister

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"etx/internal/consensus"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
)

// Registers is the pair of wo-register arrays of one application server.
type Registers struct {
	node *consensus.Node
	seq  *sequencer
}

// New layers the register arrays over a consensus node with a sequencer
// that proposes every write itself, one write per slot: the paper's one
// consensus instance per register write. Call Stop to release the sequencer
// (it also exits when the node stops).
func New(node *consensus.Node) *Registers {
	return &Registers{node: node, seq: newSequencer(node, Options{
		MaxCohort: 1,
		Send:      func(id.NodeID, msg.Payload) error { return nil },
	})}
}

// Options parameterizes the sequencer of NewBatched.
type Options struct {
	// CohortWindow is ignored: a cohort is whatever enrolled while the slot
	// ahead of it was in flight. It stays for callers that still set it.
	CohortWindow time.Duration
	// MaxCohort caps the ops proposed in one slot. Defaults to 64; 1 is the
	// paper's one instance per write.
	MaxCohort int
	// Depth, when non-nil, samples the caller's in-flight pipelining depth
	// and the cap adapts to it (AdaptiveCap): at depth 1 a cohort is one op
	// — a lone writer has no followers worth waiting for — while deeper
	// pipelines widen the cap toward MaxCohort.
	Depth func() int
	// Self and Peers mirror the consensus membership; Peers order selects
	// the preferred sequencer (first unsuspected peer).
	Self  id.NodeID
	Peers []id.NodeID
	// Detector drives sequencer selection.
	Detector fd.Detector
	// Send transmits sequencer traffic (RegOps forwards and laggard-help
	// CDecision answers) to a peer.
	Send func(to id.NodeID, p msg.Payload) error
	// RetryInterval is how long a forwarding server waits before re-sending
	// still-undecided ops (re-evaluating the target, so a crashed sequencer
	// is routed around). Defaults to 25ms.
	RetryInterval time.Duration
}

// NewBatched layers the register arrays over a consensus node with a
// sequencer that forwards to the preferred sequencer among Peers. Call Stop
// to release the sequencer.
func NewBatched(node *consensus.Node, opts Options) (*Registers, error) {
	if opts.MaxCohort <= 0 {
		opts.MaxCohort = 64
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 25 * time.Millisecond
	}
	if opts.Detector == nil || opts.Send == nil || len(opts.Peers) == 0 {
		return nil, fmt.Errorf("woregister: batched registers need Peers, Detector and Send")
	}
	return &Registers{node: node, seq: newSequencer(node, opts)}, nil
}

// Stop releases the sequencer.
func (r *Registers) Stop() { r.seq.shutdown() }

// Pending reports how many writes wait in this server's sequencer for a
// slot (liveness diagnostics).
func (r *Registers) Pending() int {
	r.seq.mu.Lock()
	defer r.seq.mu.Unlock()
	return len(r.seq.pending)
}

// EnqueueRemote admits a peer's forwarded register ops to this server's
// sequencer. Ops whose registers are already decided are answered with the
// decision instead (laggard help: the sender may have an application gap).
func (r *Registers) EnqueueRemote(from id.NodeID, ops []msg.RegOp) {
	r.seq.enqueueRemote(from, ops)
}

// write drives one register write through the sequencer, registering a
// watch first, so the caller resolves with the register's decided value no
// matter which cohort (or which server's cohort) ends up carrying the write.
func (r *Registers) write(ctx context.Context, key msg.RegKey, val []byte) ([]byte, error) {
	if v, ok := r.node.Decided(key); ok {
		return v, nil
	}
	ch := r.node.Watch(key)
	r.seq.enqueue(msg.RegOp{Reg: key, Val: val})
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("woregister: write %s: %w", key, ctx.Err())
	case <-r.node.Done():
		return nil, consensus.ErrStopped
	}
}

// WriteA writes who into regA[rid]. Per wo-register semantics the returned
// value is the value actually in the register: who if this write won the
// race, or the previously written server otherwise.
func (r *Registers) WriteA(ctx context.Context, rid id.ResultID, who id.NodeID) (id.NodeID, error) {
	key := msg.RegKey{Array: msg.RegA, RID: rid}
	raw, err := r.write(ctx, key, EncodeNode(who))
	if err != nil {
		return id.NodeID{}, fmt.Errorf("woregister: write %s: %w", key, err)
	}
	winner, err := DecodeNode(raw)
	if err != nil {
		return id.NodeID{}, fmt.Errorf("woregister: corrupt %s: %w", key, err)
	}
	return winner, nil
}

// ReadA reads regA[rid]; ok is false when the register is still ⊥.
// The read is weak, as in the paper: it may lag a write performed elsewhere,
// but repeated reads eventually observe it.
func (r *Registers) ReadA(rid id.ResultID) (id.NodeID, bool) {
	raw, ok := r.node.Decided(msg.RegKey{Array: msg.RegA, RID: rid})
	if !ok {
		return id.NodeID{}, false
	}
	n, err := DecodeNode(raw)
	if err != nil {
		return id.NodeID{}, false
	}
	return n, true
}

// WriteD writes dec into regD[rid] and returns the decision actually in the
// register. The cleaning thread's regD[j].write(nil, abort) and the
// executor's regD[j].write(result, outcome) race through here; consensus
// arbitrates.
func (r *Registers) WriteD(ctx context.Context, rid id.ResultID, dec msg.Decision) (msg.Decision, error) {
	key := msg.RegKey{Array: msg.RegD, RID: rid}
	raw, err := r.write(ctx, key, EncodeDecision(dec))
	if err != nil {
		return msg.Decision{}, fmt.Errorf("woregister: write %s: %w", key, err)
	}
	winner, err := DecodeDecision(raw)
	if err != nil {
		return msg.Decision{}, fmt.Errorf("woregister: corrupt %s: %w", key, err)
	}
	return winner, nil
}

// ReadD reads regD[rid]; ok is false when the register is still ⊥.
func (r *Registers) ReadD(rid id.ResultID) (msg.Decision, bool) {
	raw, ok := r.node.Decided(msg.RegKey{Array: msg.RegD, RID: rid})
	if !ok {
		return msg.Decision{}, false
	}
	d, err := DecodeDecision(raw)
	if err != nil {
		return msg.Decision{}, false
	}
	return d, true
}

// KnownTries returns every try whose regA this replica holds a decision for.
// The cleaning thread scans this set in place of the paper's infinite
// register-array walk; the sets coincide on every decided entry, which is
// all the paper's scan can act on.
func (r *Registers) KnownTries() []id.ResultID {
	keys := r.node.Keys()
	out := make([]id.ResultID, 0, len(keys))
	for _, k := range keys {
		if k.Array == msg.RegA {
			out = append(out, k.RID)
		}
	}
	return out
}

// Retire discards both registers of a try (regA[rid] and regD[rid]) and
// their watchers, implementing the paper's deferred garbage-collection
// concern. Callers must guarantee the client will never retransmit the
// request again.
func (r *Registers) Retire(rid id.ResultID) {
	r.node.Abandon(msg.RegKey{Array: msg.RegA, RID: rid})
	r.node.Abandon(msg.RegKey{Array: msg.RegD, RID: rid})
}

// --- cohort sequencer --------------------------------------------------

// sequencer collects concurrent register writes into cohorts and drives them
// through batch-consensus slots. One goroutine runs per server; at most one
// slot proposal is in flight at a time, and writes arriving meanwhile enroll
// in the next cohort — the group-commit combiner discipline of the data
// tier, applied to consensus.
type sequencer struct {
	node *consensus.Node
	opts Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending []msg.RegOp         // guarded by mu
	member  map[msg.RegKey]bool // guarded by mu
	wake    chan struct{}
}

func newSequencer(node *consensus.Node, opts Options) *sequencer {
	s := &sequencer{
		node:   node,
		opts:   opts,
		member: make(map[msg.RegKey]bool),
		wake:   make(chan struct{}, 1),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.run()
	return s
}

func (s *sequencer) shutdown() {
	s.cancel()
	s.wg.Wait()
}

// enqueue admits one local write to the current cohort, deduplicating by
// register: a register can only hold one value, so a second concurrent write
// rides the first one's op and resolves from the register's decision.
func (s *sequencer) enqueue(op msg.RegOp) {
	if _, ok := s.node.Decided(op.Reg); ok {
		return // the caller's watch has already fired
	}
	s.mu.Lock()
	if s.member[op.Reg] {
		s.mu.Unlock()
		return
	}
	s.member[op.Reg] = true
	s.pending = append(s.pending, op)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueueRemote admits a peer's forwarded ops. Already-decided registers are
// answered with their decision instead: the sender may be stuck behind an
// application gap, and the direct CDecision resolves its waiter regardless.
func (s *sequencer) enqueueRemote(from id.NodeID, ops []msg.RegOp) {
	for _, op := range ops {
		if v, ok := s.node.Decided(op.Reg); ok {
			_ = s.opts.Send(from, msg.CDecision{Reg: op.Reg, Val: v})
			continue
		}
		s.enqueue(op)
	}
}

// take claims up to limit still-undecided pending ops, preserving arrival
// order. Decided ops are dropped (their waiters resolved through the
// register's decision).
func (s *sequencer) take(limit int) []msg.RegOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	var batch []msg.RegOp
	kept := s.pending[:0]
	for _, op := range s.pending {
		if _, ok := s.node.Decided(op.Reg); ok {
			delete(s.member, op.Reg)
			continue
		}
		if len(batch) < limit {
			batch = append(batch, op)
		} else {
			kept = append(kept, op)
		}
	}
	s.pending = kept
	return batch
}

// slotCap is the most ops one slot carries: MaxCohort, adapted to the
// sampled depth when a sampler is installed.
func (s *sequencer) slotCap() int {
	if s.opts.Depth == nil {
		return s.opts.MaxCohort
	}
	return AdaptiveCap(s.opts.MaxCohort, s.opts.Depth())
}

// AdaptiveCap sizes a batch cap to the observed in-flight depth: depth 1
// collapses batching entirely (a cohort of one op), deeper pipelines widen
// toward the configured cap — at least 8, roughly twice the depth. The
// cohort sequencer sizes its slots with it.
func AdaptiveCap(configured, depth int) int {
	if depth <= 1 {
		return 1
	}
	m := 2 * depth
	if m < 8 {
		m = 8
	}
	if m > configured {
		m = configured
	}
	return m
}

// requeue returns still-undecided ops to the head of the pending pool (they
// lost their slot to a concurrent proposer, or were forwarded and are not
// resolved yet).
func (s *sequencer) requeue(batch []msg.RegOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keep []msg.RegOp
	for _, op := range batch {
		if _, ok := s.node.Decided(op.Reg); ok {
			delete(s.member, op.Reg)
			continue
		}
		keep = append(keep, op)
	}
	s.pending = append(keep, s.pending...)
}

// chooseSequencer returns the preferred sequencer: the first application
// server the detector does not suspect (membership order — normally the
// primary, which is also the round-1 slot coordinator, so a forwarded cohort
// still commits in a single consensus round trip). Falls back to self when
// everyone else is suspected.
func (s *sequencer) chooseSequencer() id.NodeID {
	for _, p := range s.opts.Peers {
		if p == s.opts.Self {
			return p
		}
		if !s.opts.Detector.Suspects(p) {
			return p
		}
	}
	return s.opts.Self
}

// run is the sequencer loop. Writes that arrive while a slot is in flight
// enroll in the next cohort, so under load the slot ahead of a cohort is its
// window and an idle write is proposed at once. Forwarded cohorts stay
// pending until their registers decide, re-sent (to a freshly chosen target)
// every RetryInterval. The loop ends with Stop or with the node.
func (s *sequencer) run() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		n := len(s.pending)
		s.mu.Unlock()
		if n == 0 {
			select {
			case <-s.wake:
			case <-s.ctx.Done():
				return
			case <-s.node.Done():
				return
			}
		}
		target := s.chooseSequencer()
		if target == s.opts.Self {
			batch := s.take(s.slotCap())
			if len(batch) == 0 {
				continue
			}
			// LowestUndecidedSlot is always above the local truncation
			// floor (the floor only covers applied slots), so the
			// sequencer never proposes into truncated history. If a
			// checkpoint install moves the floor mid-flight, the proposal
			// resolves with an empty decision (or ErrSlotTruncated in the
			// propose race) and the surviving ops simply re-enter the pool
			// for a live slot.
			slot := msg.SlotKey(s.node.LowestUndecidedSlot())
			if _, err := s.node.Propose(s.ctx, slot, msg.EncodeRegOps(batch)); err != nil {
				if errors.Is(err, consensus.ErrStopped) || s.ctx.Err() != nil {
					return // shutting down
				}
				// Truncation race: re-pick a slot.
			}
			// Ops that lost the slot to a concurrent proposer re-enter the
			// pool and ride the next one.
			s.requeue(batch)
			continue
		}
		// Not the preferred sequencer: forward every pending op (the target
		// caps its own slots) and wait for the registers to decide (the slot
		// coordinator's decision), for new local writes, or for the retry
		// timer — whichever first. A retry also pulls: the target answers
		// already-decided ops with their decision (enqueueRemote), which a
		// missed slot decision needs.
		batch := s.take(math.MaxInt)
		if len(batch) == 0 {
			continue
		}
		_ = s.opts.Send(target, msg.RegOps{Ops: batch})
		s.requeue(batch)
		t := time.NewTimer(s.opts.RetryInterval)
		select {
		case <-s.wake:
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-s.node.Done():
			t.Stop()
			return
		}
		t.Stop()
	}
}

// --- value encodings ---------------------------------------------------

// EncodeNode serializes a NodeID register value.
func EncodeNode(n id.NodeID) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, byte(n.Role))
	buf = binary.AppendVarint(buf, int64(n.Index))
	return buf
}

// DecodeNode parses EncodeNode's output.
func DecodeNode(b []byte) (id.NodeID, error) {
	if len(b) < 2 {
		return id.NodeID{}, fmt.Errorf("woregister: node value too short (%d bytes)", len(b))
	}
	role := id.Role(b[0])
	idx, n := binary.Varint(b[1:])
	if n <= 0 || 1+n != len(b) {
		return id.NodeID{}, fmt.Errorf("woregister: malformed node value")
	}
	return id.NodeID{Role: role, Index: int(idx)}, nil
}

// EncodeDecision serializes a Decision register value: the outcome byte, the
// participant dlist (marker 0 = unknown, count+1 otherwise — regD must carry
// it so a cleaning thread or recovering owner that reads the decision knows
// which shards to terminate), then the raw result bytes.
func EncodeDecision(d msg.Decision) []byte {
	buf := make([]byte, 0, 2+3*len(d.Participants)+len(d.Result))
	buf = append(buf, byte(d.Outcome))
	if d.Participants == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(d.Participants))+1)
		for _, n := range d.Participants {
			buf = append(buf, EncodeNode(n)...)
		}
	}
	buf = append(buf, d.Result...)
	return buf
}

// DecodeDecision parses EncodeDecision's output.
func DecodeDecision(b []byte) (msg.Decision, error) {
	if len(b) < 1 {
		return msg.Decision{}, fmt.Errorf("woregister: decision value empty")
	}
	o := msg.Outcome(b[0])
	if o != msg.OutcomeCommit && o != msg.OutcomeAbort {
		return msg.Decision{}, fmt.Errorf("woregister: bad outcome byte %d", b[0])
	}
	rest := b[1:]
	marker, n := binary.Uvarint(rest)
	if n <= 0 {
		return msg.Decision{}, fmt.Errorf("woregister: truncated participant count")
	}
	rest = rest[n:]
	var parts []id.NodeID
	if marker > 0 {
		count := marker - 1
		if count > uint64(len(rest)) {
			return msg.Decision{}, fmt.Errorf("woregister: corrupt participant count %d", count)
		}
		parts = make([]id.NodeID, 0, count)
		// Streaming parse of EncodeNode's format (DecodeNode itself wants
		// an exact-length buffer, which a mid-value field is not).
		for i := uint64(0); i < count; i++ {
			if len(rest) < 2 {
				return msg.Decision{}, fmt.Errorf("woregister: truncated participant list")
			}
			role := id.Role(rest[0])
			idx, rn := binary.Varint(rest[1:])
			if rn <= 0 {
				return msg.Decision{}, fmt.Errorf("woregister: malformed participant index")
			}
			parts = append(parts, id.NodeID{Role: role, Index: int(idx)})
			rest = rest[1+rn:]
		}
	}
	var res []byte
	if len(rest) > 0 {
		res = make([]byte, len(rest))
		copy(res, rest)
	}
	return msg.Decision{Result: res, Outcome: o, Participants: parts}, nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/consensus"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/placement"
	"etx/internal/queue"
	"etx/internal/transport"
	"etx/internal/woregister"
)

// Logic is the business logic the paper abstracts as compute(): it performs
// transient data manipulations against the database tier through tx and
// returns a result. It must not commit anything — commitment is the
// protocol's job — and it may be invoked several times for the same logical
// request (once per try), so its effects must live entirely inside the
// transaction branch. A returned error aborts the try with the paper's
// (nil, abort) decision.
type Logic interface {
	Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error)
}

// LogicFunc adapts a function to the Logic interface.
type LogicFunc func(ctx context.Context, tx *Tx, req []byte) ([]byte, error)

// Compute implements Logic.
func (f LogicFunc) Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
	return f(ctx, tx, req)
}

// AppServerConfig parameterizes an application-server process.
type AppServerConfig struct {
	// Self identifies the server.
	Self id.NodeID
	// AppServers is the full middle tier, identically ordered everywhere;
	// AppServers[0] is the default primary and round-1 consensus coordinator.
	AppServers []id.NodeID
	// DataServers is the database tier: every database server. The paper's
	// per-request dlist is no longer this whole list — it is the set of
	// shards a try touched, routed through Placement.
	DataServers []id.NodeID
	// Placement maps keys to their home database server. When nil, a hash
	// placement over DataServers is installed, so the keyed Tx API works on
	// any deployment. Every application server must be configured with the
	// same placement.
	Placement *placement.Map
	// View, when non-nil, is the epoch-stamped replica view of the data tier:
	// it translates a boot-time shard identity (what Placement and dlists
	// record) into the shard's current primary, and it carries the epoch that
	// fences a deposed primary out of the commit path. nil — the default and
	// the ReplicaFactor=1 deployment — keeps paper-exact routing: every
	// message goes to the placement-routed node itself, with no translation,
	// no epoch guard and no retries. Every application server must share one
	// View instance per process group (or keep them converged via NewPrimary
	// broadcasts).
	View *placement.View
	// Endpoint is the server's network attachment.
	Endpoint transport.Endpoint
	// Logic is the business logic run by the compute thread.
	Logic Logic
	// Detector overrides the built-in heartbeat detector (tests inject
	// scripted suspicions). When nil a heartbeat ◊P detector runs.
	Detector fd.Detector
	// HeartbeatInterval and SuspectTimeout tune the built-in detector.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// ResendInterval is the protocol-level retransmission period of
	// Prepare/Decide rounds. Defaults to 100ms.
	ResendInterval time.Duration
	// CleanInterval is the cleaning thread's scan period. Defaults to 25ms.
	CleanInterval time.Duration
	// ComputeTimeout bounds one compute() invocation. Defaults to 5s.
	ComputeTimeout time.Duration
	// Workers is the number of compute threads. The paper runs exactly one;
	// values >1 are a documented generalization. Defaults to 1.
	Workers int
	// Terminators is the size of the background termination pool: decided
	// tries are driven to their participants by these goroutines instead of
	// the compute workers, so a database that crashed and never recovers
	// stalls at most this many terminations — never a compute thread.
	// Every result delivery rides a terminator, so the pool must keep up
	// with the compute tier: defaults to max(4, Workers).
	Terminators int
	// CommitCacheSize caps the committed-decision cache and the cleaning
	// thread's dedup cache (oldest entries evicted first). Defaults to 4096.
	CommitCacheSize int
	// AdaptiveWindows and RetainSlots are knobs every process of a
	// deployment must agree on; deploy.Tuning documents them and is where
	// they are normally set. AdaptiveWindows is the one batching switch: it
	// sets the cap of the register writes one consensus slot carries. Off,
	// the cap is 1 and every slot carries one write; on, it is
	// woregister.AdaptiveCap(64, depth) of the sampled in-flight depth.
	// Prepares and Decides leave at once either way. RetainSlots > 0
	// truncates decided slots behind the cluster-wide applied watermark.
	// Both zero is the paper-exact server.
	AdaptiveWindows bool
	RetainSlots     int
	// Hooks carries optional instrumentation and crash injection.
	Hooks *Hooks
}

// batchCap is the application tier's adaptive point: the cap register
// cohorts widen toward.
const batchCap = 64

func (c *AppServerConfig) setDefaults() {
	if c.ResendInterval <= 0 {
		c.ResendInterval = 100 * time.Millisecond
	}
	if c.CleanInterval <= 0 {
		c.CleanInterval = 25 * time.Millisecond
	}
	if c.ComputeTimeout <= 0 {
		c.ComputeTimeout = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Terminators <= 0 {
		c.Terminators = 4
		if c.Workers > c.Terminators {
			c.Terminators = c.Workers
		}
	}
	if c.CommitCacheSize <= 0 {
		c.CommitCacheSize = 4096
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 10 * time.Millisecond
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 6 * c.HeartbeatInterval
	}
}

// AppServer is the paper's application-server process (Figures 4-6). It is
// stateless in the paper's sense: everything it holds is soft state
// reconstructible from the wo-registers and the databases; no disk is used.
type AppServer struct {
	cfg   AppServerConfig
	place *placement.Map
	view  *placement.View // nil on unreplicated deployments

	cons *consensus.Node
	regs *woregister.Registers
	hb   *fd.Heartbeat // nil when an external detector is injected
	det  fd.Detector

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	computeQ *queue.Queue[msg.Request]

	pendingMu sync.Mutex
	pending   map[id.ResultID]bool

	// committed caches decided requests for client retransmissions. It is
	// capped (FIFO eviction via commitOrder) and pruned by Retire.
	commitMu    sync.Mutex
	committed   map[id.RequestKey]cachedDecision
	commitOrder []id.RequestKey

	// cleaned is the cleaning thread's dedup set, capped like committed.
	cleanMu    sync.Mutex
	cleaned    map[id.ResultID]bool
	cleanOrder []id.ResultID

	// termQ feeds the background terminator pool; terming dedups in-flight
	// terminations per try.
	termQ   *queue.Queue[termJob]
	termMu  sync.Mutex
	terming map[id.ResultID]bool

	// depthEWMA smooths the sampled in-flight depth the cohort cap adapts to.
	depthEWMA *metrics.EWMA

	calls  callRouter
	execID atomic.Uint64

	// staleRejects counts data-tier messages dropped by the epoch guard: a
	// vote or ack from a node the view says is no longer its shard's primary.
	// Non-zero after a promotion proves the fence actually fired.
	staleRejects metrics.Counter
	// execRetries counts Exec/GetFast calls re-routed mid-wait because the
	// view moved their shard to a new primary.
	execRetries metrics.Counter
}

// termJob is one decided try awaiting termination at its participants.
type termJob struct {
	rid id.ResultID
	dec msg.Decision
}

type cachedDecision struct {
	try uint64
	dec msg.Decision
}

// NewAppServer creates an application-server process. Call Start to run it.
func NewAppServer(cfg AppServerConfig) (*AppServer, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("core: AppServer needs an Endpoint")
	}
	if cfg.Logic == nil {
		return nil, errors.New("core: AppServer needs Logic")
	}
	if len(cfg.AppServers) == 0 || len(cfg.DataServers) == 0 {
		return nil, errors.New("core: AppServer needs non-empty server lists")
	}
	cfg.setDefaults()

	place := cfg.Placement
	if place == nil {
		var err error
		place, err = placement.NewMap(placement.Hash(len(cfg.DataServers)), cfg.DataServers)
		if err != nil {
			return nil, fmt.Errorf("core: default placement: %w", err)
		}
	} else {
		inTier := make(map[id.NodeID]bool, len(cfg.DataServers))
		for _, db := range cfg.DataServers {
			inTier[db] = true
		}
		for _, db := range place.Nodes() {
			if !inTier[db] {
				return nil, fmt.Errorf("core: placement routes to %s, which is not in DataServers", db)
			}
		}
	}

	s := &AppServer{
		cfg:       cfg,
		place:     place,
		view:      cfg.View,
		computeQ:  queue.New[msg.Request](),
		pending:   make(map[id.ResultID]bool),
		committed: make(map[id.RequestKey]cachedDecision),
		cleaned:   make(map[id.ResultID]bool),
		termQ:     queue.New[termJob](),
		terming:   make(map[id.ResultID]bool),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.calls.init()
	// Off, a cap of 1 proposes every write in a slot of its own: the
	// paper's protocol.
	maxBatch := 1
	if cfg.AdaptiveWindows {
		maxBatch = batchCap
	}
	s.depthEWMA = metrics.NewEWMA(0.125)

	if cfg.Detector != nil {
		s.det = cfg.Detector
	} else {
		s.hb = fd.NewHeartbeat(fd.Config{
			Self:     cfg.Self,
			Peers:    cfg.AppServers,
			Interval: cfg.HeartbeatInterval,
			Timeout:  cfg.SuspectTimeout,
			Send: func(to id.NodeID, p msg.Payload) error {
				return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
			},
			// The consensus node is created a few lines below; heartbeats
			// only start flowing once Start runs, well after it exists.
			Watermark: func() uint64 {
				if s.cons == nil {
					return 0
				}
				return s.cons.Applied()
			},
		})
		s.det = s.hb
	}

	cons, err := consensus.New(consensus.Config{
		Self:        cfg.Self,
		Peers:       cfg.AppServers,
		Detector:    s.det,
		RetainSlots: cfg.RetainSlots,
		Send: func(to id.NodeID, p msg.Payload) error {
			return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: appserver consensus: %w", err)
	}
	s.cons = cons
	s.regs, err = woregister.NewBatched(cons, woregister.Options{
		MaxCohort: maxBatch,
		Depth:     s.inflightDepth,
		Self:      cfg.Self,
		Peers:     cfg.AppServers,
		Detector:  s.det,
		Send: func(to id.NodeID, p msg.Payload) error {
			return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
		},
	})
	if err != nil {
		cons.Stop()
		return nil, fmt.Errorf("core: appserver registers: %w", err)
	}
	return s, nil
}

// Registers exposes the server's wo-register view (tests, oracles).
func (s *AppServer) Registers() *woregister.Registers { return s.regs }

// Placement exposes the key-routing map of the deployment.
func (s *AppServer) Placement() *placement.Map { return s.place }

// View exposes the replica view of the data tier (nil when unreplicated).
func (s *AppServer) View() *placement.View { return s.view }

// AppServerStats snapshots the server's replication-path counters.
type AppServerStats struct {
	// StaleRejects counts data-tier messages dropped by the epoch guard
	// because the sender is no longer its shard's primary.
	StaleRejects uint64
	// ExecRetries counts Exec/GetFast calls re-routed to a newly promoted
	// primary while waiting for a reply.
	ExecRetries uint64
}

// Stats snapshots the server's replication-path counters.
func (s *AppServer) Stats() AppServerStats {
	return AppServerStats{
		StaleRejects: s.staleRejects.Load(),
		ExecRetries:  s.execRetries.Load(),
	}
}

// Retire drops all local state of a finished logical request: its cached
// committed decision, the cleaning thread's dedup entries, and the registers
// (and register watchers) of every try up to maxTry. The paper leaves this
// garbage collection open (Section 5); it is only safe once the client is
// known to have delivered the result and will not retransmit — the ablation
// benchmark quantifies the memory it reclaims.
func (s *AppServer) Retire(req id.RequestKey, maxTry uint64) {
	s.commitMu.Lock()
	delete(s.committed, req)
	s.commitMu.Unlock()
	for try := uint64(1); try <= maxTry; try++ {
		rid := id.ResultID{Client: req.Client, Seq: req.Seq, Try: try}
		s.cleanMu.Lock()
		delete(s.cleaned, rid)
		s.cleanMu.Unlock()
		s.regs.Retire(rid)
	}
}

// Detector exposes the failure detector in use.
func (s *AppServer) Detector() fd.Detector { return s.det }

// ConsensusStats exposes the consensus node's protocol counters (instances,
// rounds, messages, fast-path hits, batch-log watermarks) for benchmarks and
// diagnostics.
func (s *AppServer) ConsensusStats() consensus.Stats { return s.cons.Stats() }

// Start launches the demultiplexer, the compute thread(s), the terminator
// pool and the cleaning thread — the cobegin of Figure 4.
func (s *AppServer) Start() {
	if s.hb != nil {
		s.hb.Start(s.ctx)
	}
	s.wg.Add(1)
	go s.demux()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.computeThread()
	}
	for i := 0; i < s.cfg.Terminators; i++ {
		s.wg.Add(1)
		go s.terminatorThread()
	}
	s.wg.Add(1)
	go s.cleanThread()
}

// Stop terminates every goroutine of the server.
func (s *AppServer) Stop() {
	s.cancel()
	s.computeQ.Close()
	s.termQ.Close()
	s.regs.Stop()
	s.cons.Stop()
	s.wg.Wait()
	if s.hb != nil {
		s.hb.Wait()
	}
}

// demux routes incoming messages to the consensus node, the failure
// detector, the compute queue and the pending-call router.
func (s *AppServer) demux() {
	defer s.wg.Done()
	for {
		select {
		case env, ok := <-s.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			if b, ok := env.Payload.(msg.Batch); ok {
				// A database server's batched votes/acks: route each member
				// as if it had arrived on its own.
				for _, p := range b.Msgs {
					s.handlePayload(env.From, p)
				}
				continue
			}
			s.handlePayload(env.From, env.Payload)
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *AppServer) handlePayload(from id.NodeID, payload msg.Payload) {
	switch m := payload.(type) {
	case msg.Heartbeat:
		if s.hb != nil {
			s.hb.Observe(from)
		}
		// The applied batch-log watermark rides the heartbeat; hand it to
		// the consensus node so truncation advances even between commits.
		s.cons.ObserveWatermark(from, m.WM)
	case msg.Estimate, msg.Propose, msg.CAck, msg.CNack, msg.CDecision, msg.Checkpoint:
		s.cons.Handle(from, m)
	case msg.Request:
		s.enqueue(m)
	case msg.VoteMsg:
		if s.staleSender(from) {
			return
		}
		s.calls.routeVote(from, m)
	case msg.AckDecide:
		if s.staleSender(from) {
			return
		}
		s.calls.routeAck(from, m)
	case msg.Ready:
		if s.staleSender(from) {
			return
		}
		s.calls.routeReady(from, m.Inc)
	case msg.ExecReply:
		if s.staleSender(from) {
			return
		}
		s.calls.routeExecReply(m)
	case msg.NewPrimary:
		s.observeNewPrimary(from, m)
	case msg.RegOps:
		// A peer's forwarded write cohort: ride this server's sequencer.
		s.regs.EnqueueRemote(from, m.Ops)
	case msg.Result, msg.Exec, msg.Prepare, msg.Decide, msg.Commit1P, msg.RData,
		msg.RAck, msg.Batch, msg.PBStart, msg.PBStartAck, msg.PBOutcome, msg.PBOutcomeAck,
		msg.ReplRecord, msg.ReplAck:
		// Explicitly not ours: Result targets clients, the exec/commit-path
		// and transport-batch kinds target database servers or the reliable
		// channel below this demux, the PB* kinds belong to the
		// primary-backup baseline, and the Repl* kinds flow inside a shard's
		// replica group. Listing them keeps this switch exhaustive, so
		// routing a future kind is a conscious decision here.
	}
}

// staleSender is the epoch guard of the commit path: on a replicated
// deployment, a vote, ack, Ready or Exec reply from a data-tier node that the
// view no longer considers its shard's primary is dropped, and the sender is
// told who owns its shard now (epoch-stamped, so the deposed node fences
// itself). This closes the split-brain window: a primary that was falsely
// suspected keeps executing until the NewPrimary correction reaches it, but
// nothing it says after its successor's epoch reached this server can commit.
func (s *AppServer) staleSender(from id.NodeID) bool {
	if s.view == nil {
		return false
	}
	sh, ok := s.view.ShardOf(from)
	if !ok || s.view.IsCurrent(from) {
		return false
	}
	s.staleRejects.Inc()
	cur, ep := s.view.Primary(sh)
	_ = s.cfg.Endpoint.Send(msg.Envelope{To: from, Payload: msg.NewPrimary{
		Shard: uint64(sh), Epoch: ep, Primary: cur,
	}})
	return true
}

// observeNewPrimary advances the replica view on a promotion announcement.
// Announcements are idempotent and may arrive out of order; only a strictly
// higher epoch moves the view. A node claiming a shard it lost (its
// announcement carries an epoch at or below the view's) is corrected with the
// current ownership so it deposes itself.
func (s *AppServer) observeNewPrimary(from id.NodeID, m msg.NewPrimary) {
	if s.view == nil || int(m.Shard) < 0 || int(m.Shard) >= s.view.Shards() {
		return
	}
	if s.view.Advance(int(m.Shard), m.Epoch, m.Primary) {
		return
	}
	cur, ep := s.view.Primary(int(m.Shard))
	if from == m.Primary && cur != from {
		_ = s.cfg.Endpoint.Send(msg.Envelope{To: from, Payload: msg.NewPrimary{
			Shard: m.Shard, Epoch: ep, Primary: cur,
		}})
	}
}

// sendDB sends one commit-path message (Prepare/Decide) to a database
// server at once; nothing holds it back to batch. The database server's
// mailbox drain forms its engine cohort from whatever queued behind its
// in-flight batch. On a replicated deployment the boot-time shard identity
// recorded in dlists is translated to the shard's current primary at send
// time, so every protocol-level resend (prepare and terminate rounds tick
// through here) re-resolves routing for free after a promotion.
func (s *AppServer) sendDB(db id.NodeID, p msg.Payload) {
	if s.view != nil {
		db = s.view.Current(db)
	}
	_ = s.cfg.Endpoint.Send(msg.Envelope{To: db, Payload: p})
}

// enqueue admits a request to the compute queue, deduplicating tries already
// queued or being executed (client retransmissions).
func (s *AppServer) enqueue(req msg.Request) {
	s.pendingMu.Lock()
	if s.pending[req.RID] {
		s.pendingMu.Unlock()
		return
	}
	s.pending[req.RID] = true
	s.pendingMu.Unlock()
	s.computeQ.Push(req)
}

func (s *AppServer) clearPending(rid id.ResultID) {
	s.pendingMu.Lock()
	delete(s.pending, rid)
	s.pendingMu.Unlock()
}

// inflightDepth samples the number of requests admitted and not yet
// terminated — the pipelining depth the cohort cap keys on. The
// instantaneous count is folded into an EWMA and the larger of the two is
// returned, so a momentary trough between bursts does not collapse the
// cap mid-load while a fresh burst widens it immediately.
func (s *AppServer) inflightDepth() int {
	s.pendingMu.Lock()
	n := len(s.pending)
	s.pendingMu.Unlock()
	s.depthEWMA.Observe(float64(n))
	if sm := int(s.depthEWMA.Value() + 0.5); sm > n {
		return sm
	}
	return n
}

// computeThread is the paper's computation thread (Figure 5): it serves
// queued requests one at a time.
func (s *AppServer) computeThread() {
	defer s.wg.Done()
	for {
		for {
			req, ok := s.computeQ.Pop()
			if !ok {
				break
			}
			s.handleRequest(req)
		}
		if s.computeQ.Closed() {
			return
		}
		select {
		case <-s.computeQ.Out():
		case <-s.ctx.Done():
			return
		}
	}
}

// handleRequest executes Figure 5 for one incoming [Request, request, j].
func (s *AppServer) handleRequest(req msg.Request) {
	rid := req.RID
	defer s.clearPending(rid)

	// Figure 5, lines 3-4: a committed decision for this request is simply
	// re-sent (the client retransmitted because the result got lost).
	s.commitMu.Lock()
	cached, haveCached := s.committed[rid.Request()]
	s.commitMu.Unlock()
	if haveCached && cached.try == rid.Try {
		s.sendResult(rid, cached.dec)
		return
	}

	// A try whose decision is already in regD (e.g. the cleaning thread
	// finished it) is re-terminated: decides are idempotent at the
	// databases and the client deduplicates results.
	if dec, ok := s.regs.ReadD(rid); ok {
		s.enqueueTerminate(rid, dec)
		return
	}

	// Figure 5, line 6: claim the try in regA.
	t0 := s.cfg.Hooks.now()
	winner, err := s.regs.WriteA(s.ctx, rid, s.cfg.Self)
	if err != nil {
		return // shutting down
	}
	s.cfg.Hooks.since(rid, SpanLogStart, t0)
	s.cfg.Hooks.crash(PointAfterRegA, rid)
	if winner != s.cfg.Self {
		// Figure 5, line 7: another server owns this try; it (or its
		// cleaner) will answer the client.
		return
	}

	// Figure 5, lines 8-9: compute, then run the voting phase.
	decision := msg.Decision{Outcome: msg.OutcomeAbort} // (nil, abort)
	cctx, cancel := context.WithTimeout(s.ctx, s.cfg.ComputeTimeout)
	tx := &Tx{s: s, rid: rid}
	t0 = s.cfg.Hooks.now()
	result, err := s.cfg.Logic.Compute(cctx, tx, req.Body)
	cancel()
	s.cfg.Hooks.since(rid, SpanSQL, t0)
	s.cfg.Hooks.crash(PointAfterCompute, rid)
	// The decision carries the try's dlist — the shards the logic touched —
	// whether it commits or aborts: termination (here, at a cleaner, or at a
	// retransmission handler on another server) must reach exactly those
	// branches, and nothing else.
	decision.Participants = tx.participants()
	if err == nil {
		decision.Result = result
		t0 = s.cfg.Hooks.now()
		decision.Outcome = s.prepare(rid, tx)
		s.cfg.Hooks.since(rid, SpanPrepare, t0)
	}
	s.cfg.Hooks.crash(PointAfterPrepare, rid)

	// Figure 5, line 10: the wo-register arbitrates with any cleaner.
	t0 = s.cfg.Hooks.now()
	final, err := s.regs.WriteD(s.ctx, rid, decision)
	if err != nil {
		return
	}
	s.cfg.Hooks.since(rid, SpanLogOutcome, t0)
	s.cfg.Hooks.crash(PointAfterRegD, rid)

	// Figure 5, line 11 — handed to the terminator pool so this worker is
	// free to serve the next request while the decision is driven to the
	// participants in the background.
	s.enqueueTerminate(rid, final)
}

// answersFor reports whether a reply from `from` answers for participant db:
// either it is db itself, or — on a replicated deployment — it is the current
// primary of db's replica group. A promoted primary's votes and acks are
// credited to the boot-time identity the dlist records; its votes still carry
// its own (higher) incarnation, so an in-flight try whose Execs ran on the
// old primary aborts on the incarnation check exactly as if the database had
// restarted.
func (s *AppServer) answersFor(from, db id.NodeID) bool {
	if from == db {
		return true
	}
	if s.view == nil {
		return false
	}
	shf, okf := s.view.ShardOf(from)
	shd, okd := s.view.ShardOf(db)
	return okf && okd && shf == shd && s.view.IsCurrent(from)
}

// creditFor translates a reply's sender to the participant slot it answers
// for (see answersFor), or reports that it answers for none of parts.
func (s *AppServer) creditFor(from id.NodeID, parts []id.NodeID) (id.NodeID, bool) {
	for _, db := range parts {
		if s.answersFor(from, db) {
			return db, true
		}
	}
	return from, false
}

// prepare implements Figure 4's prepare(): a voting round over the try's
// participants — the shards the business logic touched — not the whole
// database tier, so a try confined to one shard is one Prepare/Vote
// exchange however many database servers exist. Commit requires a yes vote
// from every participant, each from the same incarnation the business logic
// executed against; a Ready (recovery notification) in place of a vote means
// the server lost its branch, so the try aborts. A try that touched nothing
// has nothing to vote on.
func (s *AppServer) prepare(rid id.ResultID, tx *Tx) msg.Outcome {
	parts := tx.participants()
	if len(parts) == 0 {
		return msg.OutcomeCommit
	}
	for _, db := range parts {
		if _, ok := tx.incarnation(db); !ok {
			// The branch was touched but no Exec against it completed; it
			// cannot be validated, so the try aborts before asking anyone
			// (termination still reaches db).
			return msg.OutcomeAbort
		}
	}

	col := s.calls.addCollector(rid)
	defer s.calls.removeCollector(col)

	type answer struct {
		vote  msg.Vote
		inc   uint64
		ready bool
	}
	answers := make(map[id.NodeID]answer, len(parts))
	sendTo := func(only map[id.NodeID]answer) {
		for _, db := range parts {
			if _, done := only[db]; done {
				continue
			}
			s.sendDB(db, msg.Prepare{RID: rid})
		}
	}
	sendTo(nil)

	ticker := time.NewTicker(s.cfg.ResendInterval)
	defer ticker.Stop()
	for len(answers) < len(parts) {
		select {
		case ev := <-col.ch:
			// Ready notifications fan out from every database server;
			// only participants (or their current primaries) answer this
			// round.
			slot, ok := s.creditFor(ev.from, parts)
			if !ok {
				break
			}
			if _, done := answers[slot]; done {
				break
			}
			switch ev.kind {
			case evVote:
				answers[slot] = answer{vote: ev.vote, inc: ev.inc}
			case evReady:
				answers[slot] = answer{ready: true}
			}
		case <-ticker.C:
			sendTo(answers)
		case <-s.ctx.Done():
			return msg.OutcomeAbort
		}
	}
	for db, a := range answers {
		if a.ready || a.vote != msg.VoteYes {
			return msg.OutcomeAbort
		}
		if want, _ := tx.incarnation(db); a.inc != want {
			// The server crashed between compute() and prepare(): its branch
			// (and unprepared work) is gone and the vote is from a later
			// incarnation's empty branch. Committing would lose the writes,
			// so the try aborts and will be recomputed.
			return msg.OutcomeAbort
		}
	}
	return msg.OutcomeCommit
}

// enqueueTerminate hands a decided try to the terminator pool, deduplicating
// tries whose termination is already queued or running.
func (s *AppServer) enqueueTerminate(rid id.ResultID, dec msg.Decision) {
	s.termMu.Lock()
	if s.terming[rid] {
		s.termMu.Unlock()
		return
	}
	s.terming[rid] = true
	s.termMu.Unlock()
	if !s.termQ.Push(termJob{rid: rid, dec: dec}) {
		s.termMu.Lock()
		delete(s.terming, rid)
		s.termMu.Unlock()
	}
}

// terminatorThread drains the termination queue. The pool is the bounded
// stand-in for the unbounded blocking the paper's Figure 4 tolerates: a
// database that crashed and never recovers stalls a terminator goroutine,
// not a compute worker.
func (s *AppServer) terminatorThread() {
	defer s.wg.Done()
	for {
		for {
			job, ok := s.termQ.Pop()
			if !ok {
				break
			}
			s.terminate(job.rid, job.dec)
			s.termMu.Lock()
			delete(s.terming, job.rid)
			s.termMu.Unlock()
		}
		if s.termQ.Closed() {
			return
		}
		select {
		case <-s.termQ.Out():
		case <-s.ctx.Done():
			return
		}
	}
}

// terminate implements Figure 4's terminate(): drive the outcome to the
// try's participants until all acknowledge (re-sending to servers that
// announce recovery with Ready), then report the decision to the client. A
// decision whose dlist is unknown — a cleaner's abort of a try whose
// executor crashed before recording what it touched — falls back to every
// database server, which is the pre-sharding behaviour and always safe.
func (s *AppServer) terminate(rid id.ResultID, dec msg.Decision) {
	t0 := s.cfg.Hooks.now()
	targets := dec.Participants
	if targets == nil {
		targets = s.cfg.DataServers
	}
	if len(targets) > 0 {
		col := s.calls.addCollector(rid)
		acked := make(map[id.NodeID]bool, len(targets))
		send := func(db id.NodeID) {
			s.sendDB(db, msg.Decide{RID: rid, O: dec.Outcome})
		}
		for _, db := range targets {
			send(db)
		}
		ticker := time.NewTicker(s.cfg.ResendInterval)
		for len(acked) < len(targets) {
			select {
			case ev := <-col.ch:
				slot, ok := s.creditFor(ev.from, targets)
				if !ok {
					break
				}
				switch ev.kind {
				case evAck:
					acked[slot] = true
				case evReady:
					if !acked[slot] {
						send(slot)
					}
				}
			case <-ticker.C:
				for _, db := range targets {
					if !acked[db] {
						send(db)
					}
				}
			case <-s.ctx.Done():
				ticker.Stop()
				s.calls.removeCollector(col)
				return
			}
		}
		ticker.Stop()
		s.calls.removeCollector(col)
	}
	s.cfg.Hooks.since(rid, SpanCommit, t0)

	if dec.Outcome == msg.OutcomeCommit {
		s.cacheCommit(rid, dec)
	}
	s.cfg.Hooks.crash(PointBeforeResult, rid)
	s.sendResult(rid, dec)
}

// fifoAdmit records a newly inserted key's position in a capped cache's
// insertion order and evicts through the callback until the order fits the
// cap again. It is the one implementation of the FIFO discipline both the
// committed-decision cache and the cleaning dedup set follow; eviction of a
// key Retire already pruned is a harmless no-op delete. The caller holds
// the cache's lock.
func fifoAdmit[K comparable](order []K, cap int, key K, evict func(K)) []K {
	order = append(order, key)
	for len(order) > cap {
		evict(order[0])
		order = order[1:]
	}
	return order
}

// cacheCommit records a committed decision for client retransmissions,
// evicting the oldest entries beyond the configured cap.
func (s *AppServer) cacheCommit(rid id.ResultID, dec msg.Decision) {
	key := rid.Request()
	s.commitMu.Lock()
	if _, ok := s.committed[key]; !ok {
		s.commitOrder = fifoAdmit(s.commitOrder, s.cfg.CommitCacheSize, key,
			func(old id.RequestKey) { delete(s.committed, old) })
	}
	s.committed[key] = cachedDecision{try: rid.Try, dec: dec}
	s.commitMu.Unlock()
}

func (s *AppServer) sendResult(rid id.ResultID, dec msg.Decision) {
	_ = s.cfg.Endpoint.Send(msg.Envelope{To: rid.Client, Payload: msg.Result{RID: rid, Dec: dec}})
}

// cleanThread is the paper's cleaning thread (Figure 6): for every suspected
// peer, abort-or-finish every try that peer owns in regA.
func (s *AppServer) cleanThread() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.CleanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.cleanSweep()
		case <-s.ctx.Done():
			return
		}
	}
}

// cleanSweep performs one pass of Figure 6's outer loop.
func (s *AppServer) cleanSweep() {
	for _, ai := range s.cfg.AppServers {
		if ai == s.cfg.Self || !s.det.Suspects(ai) {
			continue
		}
		tries := s.regs.KnownTries()
		sort.Slice(tries, func(i, j int) bool { return tries[i].Less(tries[j]) })
		for _, rid := range tries {
			if s.wasCleaned(rid) {
				continue
			}
			owner, ok := s.regs.ReadA(rid)
			if !ok || owner != ai {
				continue
			}
			// Figure 6, lines 7-8: try to abort; the write-once register
			// returns the executor's decision if it got there first, in
			// which case we finish its commit instead. The cleaner's own
			// abort carries no dlist (the crashed executor never recorded
			// one), so termination of a cleaner-won abort falls back to
			// every database server; an executor decision read back from
			// regD carries the participants it recorded.
			dec, err := s.regs.WriteD(s.ctx, rid, msg.Decision{Outcome: msg.OutcomeAbort})
			if err != nil {
				return // shutting down
			}
			s.enqueueTerminate(rid, dec)
			s.markCleaned(rid)
		}
	}
}

// wasCleaned reports whether the cleaning thread already handled rid.
func (s *AppServer) wasCleaned(rid id.ResultID) bool {
	s.cleanMu.Lock()
	defer s.cleanMu.Unlock()
	return s.cleaned[rid]
}

// markCleaned records rid in the cleaning dedup set, evicting the oldest
// entries beyond the configured cap.
func (s *AppServer) markCleaned(rid id.ResultID) {
	s.cleanMu.Lock()
	if !s.cleaned[rid] {
		s.cleanOrder = fifoAdmit(s.cleanOrder, s.cfg.CommitCacheSize, rid,
			func(old id.ResultID) { delete(s.cleaned, old) })
		s.cleaned[rid] = true
	}
	s.cleanMu.Unlock()
}

// DebugTry renders this server's view of one try for liveness diagnostics:
// register contents, queue membership and the failure-detector verdicts the
// cleaning thread acts on. It takes no locks beyond the caches' own.
func (s *AppServer) DebugTry(rid id.ResultID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s view of %s:", s.cfg.Self, rid)
	// An unset register is annotated with the writes waiting in this
	// server's sequencer and the live slot's round and coordinator — the
	// evidence the soak-hang diagnostics need to see where a stuck try is
	// blocked.
	inflight := func() string {
		out := fmt.Sprintf("(pending=%d", s.regs.Pending())
		slot := s.cons.LowestUndecidedSlot()
		if round, coord, ok := s.cons.InstanceState(slot); ok {
			out += fmt.Sprintf(" slot=%d round=%d coord=%s", slot, round, coord)
		}
		return out + ")"
	}
	if owner, ok := s.regs.ReadA(rid); ok {
		fmt.Fprintf(&b, " regA=%s", owner)
	} else {
		fmt.Fprintf(&b, " regA=unset%s", inflight())
	}
	if dec, ok := s.regs.ReadD(rid); ok {
		fmt.Fprintf(&b, " regD=%s(participants=%v)", dec.Outcome, dec.Participants)
	} else {
		fmt.Fprintf(&b, " regD=unset%s", inflight())
	}
	s.pendingMu.Lock()
	pending := s.pending[rid]
	s.pendingMu.Unlock()
	s.termMu.Lock()
	terming := s.terming[rid]
	s.termMu.Unlock()
	s.commitMu.Lock()
	_, cached := s.committed[rid.Request()]
	s.commitMu.Unlock()
	fmt.Fprintf(&b, " pending=%v terminating=%v cached=%v cleaned=%v",
		pending, terming, cached, s.wasCleaned(rid))
	var suspected []id.NodeID
	for _, ai := range s.cfg.AppServers {
		if ai != s.cfg.Self && s.det.Suspects(ai) {
			suspected = append(suspected, ai)
		}
	}
	fmt.Fprintf(&b, " suspects=%v", suspected)
	fmt.Fprintf(&b, " consensus{%s}", s.cons.Stats())
	if ws, ok := wireStats(s.cfg.Endpoint); ok {
		fmt.Fprintf(&b, " wire{%s}", ws)
	}
	return b.String()
}

// wireStats extracts wire-pressure counters when the transport exposes them
// (real TCP deployments), unwrapping reliable-channel layers along the way.
// Interface assertions keep the protocol packages free of a dependency on
// any concrete transport.
func wireStats(ep transport.Endpoint) (string, bool) {
	type statser interface{ WireStats() string }
	type unwrapper interface{ Inner() transport.Endpoint }
	for ep != nil {
		if s, ok := ep.(statser); ok {
			return s.WireStats(), true
		}
		u, ok := ep.(unwrapper)
		if !ok {
			break
		}
		ep = u.Inner()
	}
	return "", false
}

// --- business-data access for Logic -----------------------------------------

// Tx is the handle through which Logic manipulates the database tier inside
// one try's transaction branch. It is not safe for concurrent use by
// multiple goroutines (compute() is a single logical thread, as in the
// paper).
//
// The keyed methods (Get, Put, Add, CheckAtLeast, Do) route each operation
// to the key's home shard through the deployment's placement map and are the
// preferred surface: a transaction that stays on one shard commits through
// the one-shard fast path regardless of how many database servers exist.
// Exec addresses a database server directly for logics that manage their own
// placement. Either way the touched servers are recorded as the try's
// participant set — the paper's dlist — and commitment involves only them.
type Tx struct {
	s   *AppServer
	rid id.ResultID
	// touched and incs are small linear-scan sets rather than maps: a try
	// touches a handful of shards at most, and two map allocations per try
	// were measurable on the batched hot path.
	touched []id.NodeID
	incs    []dbInc
}

// dbInc records the incarnation observed at the first completed Exec
// against one database server.
type dbInc struct {
	db  id.NodeID
	inc uint64
}

// RID returns the try this transaction belongs to.
func (t *Tx) RID() id.ResultID { return t.rid }

// DBs returns the database servers of the deployment.
func (t *Tx) DBs() []id.NodeID { return t.s.cfg.DataServers }

// Home returns the database server owning key's home shard.
func (t *Tx) Home(key string) id.NodeID { return t.s.place.Home(key) }

// Placement returns the deployment's key-routing map.
func (t *Tx) Placement() *placement.Map { return t.s.place }

// participants returns the try's dlist: every database server this
// transaction sent an operation to, in deterministic order. Servers are
// recorded at send time, so a branch opened by an Exec whose reply was lost
// is still aborted at termination.
func (t *Tx) participants() []id.NodeID {
	out := make([]id.NodeID, len(t.touched))
	copy(out, t.touched)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// touch records db in the participant set.
func (t *Tx) touch(db id.NodeID) {
	for _, d := range t.touched {
		if d == db {
			return
		}
	}
	t.touched = append(t.touched, db)
}

// incarnation returns the incarnation recorded at the first Exec against db.
func (t *Tx) incarnation(db id.NodeID) (uint64, bool) {
	for _, e := range t.incs {
		if e.db == db {
			return e.inc, true
		}
	}
	return 0, false
}

// Do routes one operation on key to its home shard.
func (t *Tx) Do(ctx context.Context, key string, op msg.Op) (msg.OpResult, error) {
	op.Key = key
	return t.Exec(ctx, t.Home(key), op)
}

// Get reads key on its home shard, returning the raw value and its integer
// interpretation.
func (t *Tx) Get(ctx context.Context, key string) ([]byte, int64, error) {
	rep, err := t.Do(ctx, key, msg.Op{Code: msg.OpGet})
	if err != nil {
		return nil, 0, err
	}
	if !rep.OK {
		return nil, 0, fmt.Errorf("core: get %q: %s", key, rep.Err)
	}
	return rep.Val, rep.Num, nil
}

// Put writes val to key on its home shard.
func (t *Tx) Put(ctx context.Context, key string, val []byte) error {
	rep, err := t.Do(ctx, key, msg.Op{Code: msg.OpPut, Val: val})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("core: put %q: %s", key, rep.Err)
	}
	return nil
}

// Add atomically adds delta to the integer at key on its home shard and
// returns the new value.
func (t *Tx) Add(ctx context.Context, key string, delta int64) (int64, error) {
	rep, err := t.Do(ctx, key, msg.Op{Code: msg.OpAdd, Delta: delta})
	if err != nil {
		return 0, err
	}
	if !rep.OK {
		return 0, fmt.Errorf("core: add %q: %s", key, rep.Err)
	}
	return rep.Num, nil
}

// CheckAtLeast installs a commitment-time guard on key's home shard: if the
// integer at key is below min, the shard refuses to commit the try.
func (t *Tx) CheckAtLeast(ctx context.Context, key string, min int64) error {
	rep, err := t.Do(ctx, key, msg.Op{Code: msg.OpCheckGE, Delta: min})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("core: check %q: %s", key, rep.Err)
	}
	return nil
}

// GetFast reads key's last committed value on its home shard through the
// read-only fast path: the shard answers from its committed snapshot at a
// batch boundary, without locks, without opening a transaction branch, and
// without enlisting the shard in the try's participant set — so the read
// never enters the commit path. The value is a consistent committed
// snapshot, not a serializable read inside the try: it may trail the try's
// own uncommitted writes and the in-flight batch. Use it for read-only
// business logic that tolerates snapshot staleness; use Get for reads the
// try's serialization must cover.
func (t *Tx) GetFast(ctx context.Context, key string) ([]byte, int64, error) {
	db := t.Home(key)
	rep, err := t.s.execCall(ctx, db, msg.Exec{RID: t.rid, Op: msg.Op{Code: msg.OpSnapRead, Key: key}})
	if err != nil {
		return nil, 0, fmt.Errorf("core: snap read on %s: %w", db, err)
	}
	if !rep.Rep.OK {
		return nil, 0, fmt.Errorf("core: snap read %q: %s", key, rep.Rep.Err)
	}
	return rep.Rep.Val, rep.Rep.Num, nil
}

// Exec runs one data operation on db inside this try's branch. A failed
// operation is reported in the OpResult (business-level failure: lock
// timeout, check violation); an error return means the call itself could not
// complete (timeout, shutdown, database restarted mid-transaction).
func (t *Tx) Exec(ctx context.Context, db id.NodeID, op msg.Op) (msg.OpResult, error) {
	t.touch(db)
	rep, err := t.s.execCall(ctx, db, msg.Exec{RID: t.rid, Op: op})
	if err != nil {
		return msg.OpResult{}, err
	}
	if prev, ok := t.incarnation(db); !ok {
		t.incs = append(t.incs, dbInc{db: db, inc: rep.Inc})
	} else if prev != rep.Inc {
		return rep.Rep, fmt.Errorf("core: database %s restarted mid-transaction (incarnation %d -> %d)", db, prev, rep.Inc)
	}
	return rep.Rep, nil
}

// execResendCap bounds how many times one Exec call may be re-sent after the
// replica view moved its shard to a new primary. Re-sends happen only on a
// primary change — never to the same node, because Exec is not idempotent on
// a live branch — so the cap is about runaway view churn, not timeouts.
const execResendCap = 8

// execCall runs one Exec exchange against db's shard. On an unreplicated
// deployment (nil view) it is exactly the paper's single send-and-wait. On a
// replicated one the send goes to the shard's current primary, and while
// waiting the call polls the view with exponential backoff: if a promotion
// re-homed the shard, the operation is re-sent to the new primary — and only
// then, so a slow-but-alive primary is never asked to execute twice. The
// reply carries the incarnation of whichever replica answered; the caller's
// incarnation pinning turns a mid-try switch into an abort-and-recompute.
func (s *AppServer) execCall(ctx context.Context, db id.NodeID, ex msg.Exec) (msg.ExecReply, error) {
	ex.CallID = s.execID.Add(1)
	ch := s.calls.addExec(ex.CallID)
	defer s.calls.removeExec(ex.CallID)

	target := db
	if s.view != nil {
		target = s.view.Current(db)
	}
	if err := s.cfg.Endpoint.Send(msg.Envelope{To: target, Payload: ex}); err != nil {
		return msg.ExecReply{}, fmt.Errorf("core: exec on %s: %w", db, err)
	}

	if s.view == nil {
		select {
		case rep := <-ch:
			return rep, nil
		case <-ctx.Done():
			return msg.ExecReply{}, fmt.Errorf("core: exec on %s: %w", db, ctx.Err())
		case <-s.ctx.Done():
			return msg.ExecReply{}, errors.New("core: server stopping")
		}
	}

	poll := s.cfg.ResendInterval
	timer := time.NewTimer(poll)
	defer timer.Stop()
	resends := 0
	for {
		select {
		case rep := <-ch:
			return rep, nil
		case <-timer.C:
			if cur := s.view.Current(db); cur != target {
				if resends >= execResendCap {
					return msg.ExecReply{}, fmt.Errorf("core: exec on %s: shard primary moved %d times without answering", db, resends)
				}
				resends++
				s.execRetries.Inc()
				target = cur
				if err := s.cfg.Endpoint.Send(msg.Envelope{To: target, Payload: ex}); err != nil {
					return msg.ExecReply{}, fmt.Errorf("core: exec on %s: %w", db, err)
				}
				poll = s.cfg.ResendInterval
			} else if poll < 8*s.cfg.ResendInterval {
				poll *= 2
			}
			timer.Reset(poll)
		case <-ctx.Done():
			return msg.ExecReply{}, fmt.Errorf("core: exec on %s: %w", db, ctx.Err())
		case <-s.ctx.Done():
			return msg.ExecReply{}, errors.New("core: server stopping")
		}
	}
}

// --- pending-call routing ----------------------------------------------------

type colEventKind uint8

const (
	evVote colEventKind = iota + 1
	evAck
	evReady
)

type colEvent struct {
	kind colEventKind
	from id.NodeID
	vote msg.Vote
	inc  uint64
}

type collector struct {
	rid id.ResultID
	ch  chan colEvent
}

// callRouter correlates replies from database servers with the waiting
// prepare/terminate rounds and Exec calls. Ready notifications fan out to
// every active collector, like the paper's "(receive ... or [Ready])" waits.
type callRouter struct {
	mu       sync.Mutex
	execs    map[uint64]chan msg.ExecReply
	cols     map[id.ResultID]map[*collector]bool
	pool     sync.Pool // recycled collectors; every request makes two
	execPool sync.Pool // recycled exec-reply channels; every data op makes one
}

func (r *callRouter) init() {
	r.execs = make(map[uint64]chan msg.ExecReply)
	r.cols = make(map[id.ResultID]map[*collector]bool)
	r.pool.New = func() any {
		// The buffer only needs to absorb one round's answers from every
		// participant plus stray Ready fan-out; a protocol-level resend
		// recovers anything dropped beyond that.
		return &collector{ch: make(chan colEvent, 32)}
	}
}

func (r *callRouter) addCollector(rid id.ResultID) *collector {
	col := r.pool.Get().(*collector)
	col.rid = rid
	r.mu.Lock()
	set, ok := r.cols[rid]
	if !ok {
		set = make(map[*collector]bool, 1)
		r.cols[rid] = set
	}
	set[col] = true
	r.mu.Unlock()
	return col
}

func (r *callRouter) removeCollector(col *collector) {
	r.mu.Lock()
	if set, ok := r.cols[col.rid]; ok {
		delete(set, col)
		if len(set) == 0 {
			delete(r.cols, col.rid)
		}
	}
	r.mu.Unlock()
	// Safe to recycle: route() only sends while holding r.mu with the
	// collector registered, so after removal the channel is quiescent; drain
	// whatever was queued before handing it to the next request.
	for {
		select {
		case <-col.ch:
		default:
			r.pool.Put(col)
			return
		}
	}
}

func (r *callRouter) routeVote(from id.NodeID, m msg.VoteMsg) {
	r.route(m.RID, colEvent{kind: evVote, from: from, vote: m.V, inc: m.Inc})
}

func (r *callRouter) routeAck(from id.NodeID, m msg.AckDecide) {
	r.route(m.RID, colEvent{kind: evAck, from: from})
}

func (r *callRouter) route(rid id.ResultID, ev colEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for col := range r.cols[rid] {
		select {
		case col.ch <- ev:
		default: // collector overwhelmed; protocol-level resends recover
		}
	}
}

func (r *callRouter) routeReady(from id.NodeID, inc uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, set := range r.cols {
		for col := range set {
			select {
			case col.ch <- colEvent{kind: evReady, from: from, inc: inc}:
			default:
			}
		}
	}
}

func (r *callRouter) addExec(callID uint64) chan msg.ExecReply {
	var ch chan msg.ExecReply
	if v := r.execPool.Get(); v != nil {
		ch = v.(chan msg.ExecReply)
	} else {
		ch = make(chan msg.ExecReply, 2)
	}
	r.mu.Lock()
	r.execs[callID] = ch
	r.mu.Unlock()
	return ch
}

func (r *callRouter) removeExec(callID uint64) {
	r.mu.Lock()
	ch := r.execs[callID]
	delete(r.execs, callID)
	r.mu.Unlock()
	if ch == nil {
		return
	}
	// Safe to recycle: routeExecReply sends while holding r.mu with the call
	// registered, so after removal the channel is quiescent; drain stray
	// duplicate replies before handing it to the next call.
	for {
		select {
		case <-ch:
		default:
			r.execPool.Put(ch)
			return
		}
	}
}

func (r *callRouter) routeExecReply(m msg.ExecReply) {
	r.mu.Lock()
	// The non-blocking send stays under the lock: once removeExec has run,
	// nothing may touch the channel again (it is recycled).
	if ch, ok := r.execs[m.CallID]; ok {
		select {
		case ch <- m:
		default: // duplicate reply
		}
	}
	r.mu.Unlock()
}

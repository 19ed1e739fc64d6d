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
//
// A try that calls no Exec (only Tx.GetFast reads) opens no branch and is
// answered without the wo-registers, so more than one server may compute
// it. Whether a try opens a branch must therefore follow from the request,
// or from reads made through Exec (Tx.Get), never from a GetFast snapshot.
type Logic interface {
	Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error)
}

// LogicFunc adapts a function to the Logic interface.
type LogicFunc func(ctx context.Context, tx *Tx, req []byte) ([]byte, error)

// Compute implements Logic.
func (f LogicFunc) Compute(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
	return f(ctx, tx, req)
}

// TryLog records who executes a try (Figure 5's regA) and its decision
// (regD), the one place the protocols of the paper's Figures 7 and 8 differ
// (see the package doc). A write returns the value that holds: another
// writer's, if the log arbitrates as the default *woregister.Registers do.
type TryLog interface {
	WriteA(ctx context.Context, rid id.ResultID, owner id.NodeID) (id.NodeID, error)
	ReadA(rid id.ResultID) (id.NodeID, bool)
	WriteD(ctx context.Context, rid id.ResultID, dec msg.Decision) (msg.Decision, error)
	ReadD(rid id.ResultID) (msg.Decision, bool)
	KnownTries() []id.ResultID
}

// NoLog is the unreliable baseline's TryLog (Figure 7(a)): it records
// nothing. An AppServer configured with it writes no register, takes no
// vote and commits each try in one phase with msg.Commit1P.
var NoLog TryLog = noLog{}

type noLog struct{}

func (noLog) WriteA(_ context.Context, _ id.ResultID, o id.NodeID) (id.NodeID, error) { return o, nil }
func (noLog) ReadA(id.ResultID) (id.NodeID, bool)                                     { return id.NodeID{}, false }
func (noLog) WriteD(_ context.Context, _ id.ResultID, d msg.Decision) (msg.Decision, error) {
	return d, nil
}
func (noLog) ReadD(id.ResultID) (msg.Decision, bool) { return msg.Decision{}, false }
func (noLog) KnownTries() []id.ResultID              { return nil }

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
	// Log is where tries' regA and regD are written: nil is the paper's
	// wo-registers over consensus. baseline.TwoPCLog (presumed-nothing 2PC)
	// and NoLog (the unreliable one-phase server) arbitrate nothing, so they
	// need len(AppServers) 1.
	Log TryLog
	// Detector overrides the built-in heartbeat detector (tests inject
	// scripted suspicions). When nil a heartbeat ◊P detector runs.
	Detector fd.Detector
	// HeartbeatInterval and SuspectTimeout tune the built-in detector.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// ResendInterval is the demux's tick: a Prepare/Decide round that has
	// heard nothing for a full interval re-sends to the participants yet to
	// answer. It also paces Exec re-routing. Defaults to 100ms.
	ResendInterval time.Duration
	// CleanInterval is the cleaning thread's scan period. Defaults to 25ms.
	CleanInterval time.Duration
	// ComputeTimeout bounds one compute() invocation. Defaults to 5s.
	ComputeTimeout time.Duration
	// Workers is the number of compute threads. They run compute() and the
	// register writes around it; a try waiting on votes or acks holds none,
	// so Workers bounds computation only. The paper runs exactly one;
	// values >1 are a documented generalization. Defaults to 1.
	Workers int
	// CommitCacheSize caps the committed-decision cache and the cleaning
	// thread's dedup cache (oldest entries evicted first). Defaults to 4096.
	CommitCacheSize int
	// AdaptiveWindows is ignored; set only by benchmark/ until ROADMAP item
	// 9. The register writes one consensus slot carries are capped at
	// woregister.AdaptiveCap(64, depth) of the sampled in-flight depth: one
	// at depth 1, the paper's one instance per write.
	AdaptiveWindows bool
	// RetainSlots is a knob every process of a deployment must agree on;
	// deploy.Tuning documents it and is where it is normally set. > 0
	// truncates decided slots behind the cluster-wide applied watermark; 0
	// keeps every slot, as the paper does.
	RetainSlots int
	// Hooks carries optional instrumentation and crash injection.
	Hooks *Hooks
}

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
	// log is cfg.Log, or regs. onePhase marks NoLog: a try commits with
	// Commit1P and nothing is written.
	log      TryLog
	onePhase bool
	hb       *fd.Heartbeat // nil when an external detector is injected
	det      fd.Detector

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// computeQ feeds the compute threads: requests to execute, and tries
	// whose vote is in, to record and terminate.
	computeQ *queue.Queue[func()]

	// mu guards the server's per-try soft state. pending holds the tries
	// queued or computing, up to their regD write. committed caches decided
	// requests for client retransmissions, and cleaned is the cleaning
	// thread's dedup set; both are capped (FIFO eviction via their order
	// slices) and pruned by Retire. rounds holds each try's open 2PC round,
	// and execs each pending Exec call's reply channel.
	mu          sync.Mutex
	pending     map[id.ResultID]bool          // guarded by mu
	committed   map[id.RequestKey]msg.Result  // guarded by mu
	commitOrder []id.RequestKey               // guarded by mu
	cleaned     map[id.ResultID]bool          // guarded by mu
	cleanOrder  []id.ResultID                 // guarded by mu
	rounds      map[id.ResultID]*round        // guarded by mu
	execs       map[uint64]chan msg.ExecReply // guarded by mu
	execPool    sync.Pool                     // recycled exec-reply channels; every data op makes one
	execID      atomic.Uint64

	// depthEWMA smooths the sampled in-flight depth the cohort cap adapts to.
	depthEWMA *metrics.EWMA

	// staleRejects counts data-tier messages dropped by the epoch guard: a
	// vote or ack from a node the view says is no longer its shard's primary.
	// Non-zero after a promotion proves the fence actually fired.
	staleRejects metrics.Counter
	// execRetries counts Exec/GetFast calls re-routed mid-wait because the
	// view moved their shard to a new primary.
	execRetries metrics.Counter
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
	if cfg.Log != nil && len(cfg.AppServers) != 1 {
		return nil, errors.New("core: a Log that does not arbitrate needs exactly one AppServer")
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
		computeQ:  queue.New[func()](),
		pending:   make(map[id.ResultID]bool),
		committed: make(map[id.RequestKey]msg.Result),
		cleaned:   make(map[id.ResultID]bool),
		rounds:    make(map[id.ResultID]*round),
		execs:     make(map[uint64]chan msg.ExecReply),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
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
		Depth:    s.inflightDepth,
		Self:     cfg.Self,
		Peers:    cfg.AppServers,
		Detector: s.det,
		Send: func(to id.NodeID, p msg.Payload) error {
			return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
		},
	})
	if err != nil {
		cons.Stop()
		return nil, fmt.Errorf("core: appserver registers: %w", err)
	}
	s.log, s.onePhase = s.regs, cfg.Log == NoLog
	if cfg.Log != nil {
		s.log = cfg.Log
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
	s.mu.Lock()
	delete(s.committed, req)
	for try := uint64(1); try <= maxTry; try++ {
		delete(s.cleaned, id.ResultID{Client: req.Client, Seq: req.Seq, Try: try})
	}
	s.mu.Unlock()
	for try := uint64(1); try <= maxTry; try++ {
		s.regs.Retire(id.ResultID{Client: req.Client, Seq: req.Seq, Try: try})
	}
}

// Detector exposes the failure detector in use.
func (s *AppServer) Detector() fd.Detector { return s.det }

// ConsensusStats exposes the consensus node's protocol counters (instances,
// rounds, messages, fast-path hits, batch-log watermarks) for benchmarks and
// diagnostics.
func (s *AppServer) ConsensusStats() consensus.Stats { return s.cons.Stats() }

// Start launches the demultiplexer, the compute thread(s) and the cleaning
// thread — the cobegin of Figure 4. The demultiplexer also steps every try's
// prepare() and terminate() round: no goroutine is started per try.
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
	s.wg.Add(1)
	go s.cleanThread()
}

// Stop terminates every goroutine of the server. Open rounds are soft state
// and go with it.
func (s *AppServer) Stop() {
	s.cancel()
	s.computeQ.Close()
	s.regs.Stop()
	s.cons.Stop()
	s.wg.Wait()
	if s.hb != nil {
		s.hb.Wait()
	}
}

// demux routes incoming messages to the consensus node, the failure
// detector, the compute queue, the try rounds and the pending Exec calls,
// and ticks the rounds' resends.
func (s *AppServer) demux() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.ResendInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.resend()
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
		if !s.staleSender(from) {
			s.hear(from, m.RID, voting, m.V == msg.VoteYes, m.Inc)
		}
	case msg.AckDecide:
		if !s.staleSender(from) {
			s.hear(from, m.RID, terminating, m.O == msg.OutcomeCommit, 0)
		}
	case msg.Ready:
		if !s.staleSender(from) {
			s.onReady(from)
		}
	case msg.ExecReply:
		if !s.staleSender(from) {
			s.routeExecReply(m)
		}
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

// sendDB sends one Prepare or Decide to a database server at once; nothing
// holds it back to batch. On a replicated deployment the boot-time shard
// identity recorded in dlists is translated to the shard's current primary
// at send time, so every round's resend re-resolves routing after a
// promotion.
func (s *AppServer) sendDB(db id.NodeID, p msg.Payload) {
	if s.view != nil {
		db = s.view.Current(db)
	}
	_ = s.cfg.Endpoint.Send(msg.Envelope{To: db, Payload: p})
}

// enqueue admits a request to the compute queue, deduplicating tries already
// queued or being executed (client retransmissions).
func (s *AppServer) enqueue(req msg.Request) {
	s.mu.Lock()
	if s.pending[req.RID] {
		s.mu.Unlock()
		return
	}
	s.pending[req.RID] = true
	s.mu.Unlock()
	s.computeQ.Push(func() {
		if !s.handleRequest(req) {
			s.clearPending(req.RID)
		}
	})
}

func (s *AppServer) clearPending(rid id.ResultID) {
	s.mu.Lock()
	delete(s.pending, rid)
	s.mu.Unlock()
}

// inflightDepth samples the number of requests admitted and not yet
// terminated — the pipelining depth the cohort cap keys on. The
// instantaneous count is folded into an EWMA and the larger of the two is
// returned, so a momentary trough between bursts does not collapse the
// cap mid-load while a fresh burst widens it immediately.
func (s *AppServer) inflightDepth() int {
	s.mu.Lock()
	n := len(s.pending)
	s.mu.Unlock()
	s.depthEWMA.Observe(float64(n))
	if sm := int(s.depthEWMA.Value() + 0.5); sm > n {
		return sm
	}
	return n
}

// computeThread is the paper's computation thread (Figure 5): it serves
// queued requests, and the register writes of tries whose vote is in, one at
// a time.
func (s *AppServer) computeThread() {
	defer s.wg.Done()
	for {
		for {
			f, ok := s.computeQ.Pop()
			if !ok {
				break
			}
			f()
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

// handleRequest executes Figure 5 for one incoming [Request, request, j], up
// to the voting round. It reports whether the try went on to its decision:
// the try then stays pending — a retransmission of it is not recomputed —
// until decide has written regD. The regA claim of line 6 is lazy: the try's
// first Exec makes it (Tx.claimA), so a try that opens no branch writes
// neither register.
func (s *AppServer) handleRequest(req msg.Request) bool {
	rid := req.RID

	// Figure 5, lines 3-4: a committed decision for this request is simply
	// re-sent (the client retransmitted because the result got lost).
	s.mu.Lock()
	cached, ok := s.committed[rid.Request()]
	s.mu.Unlock()
	if ok && cached.RID == rid {
		s.sendResult(rid, cached.Dec)
		return false
	}

	// A try whose decision is already in regD (e.g. the cleaning thread
	// finished it) is re-terminated: decides are idempotent at the
	// databases and the client deduplicates results.
	if dec, ok := s.log.ReadD(rid); ok {
		s.startTerminate(rid, dec)
		return false
	}

	// Figure 5, lines 6 and 8-9: compute (its first Exec claims the try in
	// regA), then run the voting phase.
	cctx, cancel := context.WithTimeout(s.ctx, s.cfg.ComputeTimeout)
	tx := &Tx{s: s, rid: rid, sqlStart: s.cfg.Hooks.now()}
	result, err := s.cfg.Logic.Compute(cctx, tx, req.Body)
	cancel()
	s.cfg.Hooks.since(rid, SpanSQL, tx.sqlStart)
	s.cfg.Hooks.crash(PointAfterCompute, rid)
	switch {
	case tx.claim == claimLost:
		// Figure 5, line 7: another server owns this try; it (or its
		// cleaner) will answer the client. Nothing was sent.
		return false
	case tx.claim == unclaimed && err == nil:
		// The try opened no branch, so it commits nothing anywhere: no
		// register arbitrates it and the result goes out at once. A
		// retransmission recomputes it.
		s.cfg.Hooks.crash(PointBeforeResult, rid)
		s.sendResult(rid, msg.Decision{Result: result, Outcome: msg.OutcomeCommit, Participants: []id.NodeID{}})
		return false
	}
	if s.onePhase {
		s.commitOnePhase(rid, tx.participants(), result, err)
		return false
	}
	// The decision carries the try's dlist — the shards the logic touched —
	// whether it commits or aborts: termination (here, at a cleaner, or at a
	// retransmission handler on another server) must reach exactly those
	// branches, and nothing else.
	decision := msg.Decision{Outcome: msg.OutcomeAbort, Participants: tx.participants()} // (nil, abort)
	if err != nil {
		if tx.claim == unclaimed {
			// A failure before any claim still aborts through regD, where
			// it may meet a server that owns the try. Like the cleaner's
			// abort it cannot know that owner's branches, so its dlist is
			// unknown and termination reaches every database server.
			decision.Participants = nil
		}
		s.decide(rid, decision)
		return true
	}
	decision.Result = result
	decision.Outcome = msg.OutcomeCommit
	s.prepare(rid, tx, decision)
	return true
}

// creditFor returns the index of the participant in parts a reply from
// `from` answers for: the participant itself or, on a replicated deployment,
// its shard's current primary. A promoted primary's votes carry its own
// (higher) incarnation, so a try whose Execs ran on the old primary aborts on
// the incarnation check as if the database had restarted.
func (s *AppServer) creditFor(from id.NodeID, parts []id.NodeID) (int, bool) {
	for i, db := range parts {
		if from == db {
			return i, true
		}
		if s.view == nil {
			continue
		}
		shf, okf := s.view.ShardOf(from)
		shd, okd := s.view.ShardOf(db)
		if okf && okd && shf == shd && s.view.IsCurrent(from) {
			return i, true
		}
	}
	return 0, false
}

// roundPhase is the part of Figure 4 a round runs: prepare() or terminate().
type roundPhase string

const (
	voting      roundPhase = "voting"
	terminating roundPhase = "terminating"
)

// round is one try's 2PC exchange with its participants, kept in s.rounds
// and stepped under s.mu by the demux on each vote, ack, Ready and resend
// tick. No goroutine waits on it; what a step sends leaves after s.mu is
// released.
type round struct {
	phase   roundPhase
	out     msg.Payload // what the round sends its targets: Prepare or Decide
	targets []id.NodeID
	incs    []uint64 // voting: the incarnation targets[i]'s branch executed against
	heard   []bool   // targets[i] answered (voting) or acked (terminating)
	left    int      // targets not yet heard
	// dec is the decision being driven, or — voting — the one the vote
	// yields: commit until an answer refuses.
	dec        msg.Decision
	start      time.Time // the span's start; zero when spans are off
	quietSince time.Time // the last send or input: the resend clock
}

// open registers r as rid's round and sends r.out to every target, unless
// rid has a round open already.
func (s *AppServer) open(rid id.ResultID, r *round) {
	r.heard = make([]bool, len(r.targets))
	r.left = len(r.targets)
	r.quietSince = time.Now()
	s.mu.Lock()
	if _, busy := s.rounds[rid]; busy {
		s.mu.Unlock()
		return
	}
	s.rounds[rid] = r
	s.mu.Unlock()
	for _, db := range r.targets {
		s.sendDB(db, r.out)
	}
}

// prepare implements Figure 4's prepare(): a voting round over the shards
// the business logic touched. Commit needs a yes vote from each, from the
// incarnation the logic executed against; the last answer queues the try
// for decide. A try with a branch no Exec completed against (it cannot be
// validated, so it aborts) goes to decide at once. Only a claimed try gets
// here, and claiming touched a shard, so the round is never empty.
func (s *AppServer) prepare(rid id.ResultID, tx *Tx, dec msg.Decision) {
	r := &round{phase: voting, out: msg.Prepare{RID: rid}, targets: dec.Participants, start: s.cfg.Hooks.now()}
	for _, db := range r.targets {
		inc, ok := tx.incarnation(db)
		if !ok {
			dec.Outcome = msg.OutcomeAbort
		}
		r.incs = append(r.incs, inc)
	}
	r.dec = dec
	if dec.Outcome == msg.OutcomeAbort {
		s.cfg.Hooks.since(rid, SpanPrepare, r.start)
		s.decide(rid, dec)
		return
	}
	s.open(rid, r)
}

// decide runs Figure 5's lines 10-11 for a try whose vote is in: the
// wo-register arbitrates the decision with any cleaner, and the winner is
// terminated.
func (s *AppServer) decide(rid id.ResultID, dec msg.Decision) {
	s.cfg.Hooks.crash(PointAfterPrepare, rid)
	t0 := s.cfg.Hooks.now()
	final, err := s.log.WriteD(s.ctx, rid, dec)
	s.clearPending(rid)
	if err != nil {
		return // shutting down
	}
	s.cfg.Hooks.since(rid, SpanLogOutcome, t0)
	s.cfg.Hooks.crash(PointAfterRegD, rid)
	s.startTerminate(rid, final)
}

// startTerminate implements Figure 4's terminate(): a round drives the
// outcome to the try's participants until all acknowledge, and the last ack
// reports the decision to the client. An unknown dlist — an abort written
// by a cleaner, or by a server whose compute() failed before any claim —
// falls back to every database server, which is always safe. A recorded
// dlist is never empty: only a claimed try records one, and claiming
// touched a shard.
func (s *AppServer) startTerminate(rid id.ResultID, dec msg.Decision) {
	r := &round{phase: terminating, out: msg.Decide{RID: rid, O: dec.Outcome}, targets: dec.Participants,
		dec: dec, start: s.cfg.Hooks.now()}
	if r.targets == nil {
		r.targets = s.cfg.DataServers
	}
	s.open(rid, r)
}

// commitOnePhase is the unreliable baseline's commitment (Figure 7(a)): no
// log and no vote. A computed try sends each participant Commit1P, and a
// shard that refuses aborts the decision the client gets (the others may
// have committed: the anomaly this baseline accepts). A failed one sends
// Decide(abort); one that touched nothing is answered at once.
func (s *AppServer) commitOnePhase(rid id.ResultID, parts []id.NodeID, result []byte, err error) {
	r := &round{phase: terminating, out: msg.Commit1P{RID: rid}, targets: parts,
		dec: msg.Decision{Result: result, Outcome: msg.OutcomeCommit, Participants: parts}, start: s.cfg.Hooks.now()}
	if err != nil {
		r.out, r.dec = msg.Decide{RID: rid, O: msg.OutcomeAbort}, msg.Decision{Outcome: msg.OutcomeAbort, Participants: parts}
	}
	if len(parts) == 0 {
		s.sendResult(rid, r.dec)
		return
	}
	s.open(rid, r)
}

// hear steps rid's round in phase ph with a vote (yes at incarnation inc,
// or not) or an ack from `from`.
func (s *AppServer) hear(from id.NodeID, rid id.ResultID, ph roundPhase, yes bool, inc uint64) {
	s.mu.Lock()
	r, done := s.hearLocked(from, rid, ph, yes, inc)
	s.mu.Unlock()
	if done {
		s.roundDone(rid, r)
	}
}

// hearLocked is hear's step and reports whether it closed the round. A vote
// that is not yes, or is from a later incarnation than the branch executed
// against — the server crashed in between and its unprepared work is gone —
// aborts the try, which will be recomputed. So does a one-phase commit's ack
// of an abort: it carries the outcome the shard chose. Caller holds s.mu.
func (s *AppServer) hearLocked(from id.NodeID, rid id.ResultID, ph roundPhase, yes bool, inc uint64) (*round, bool) {
	r := s.rounds[rid]
	if r == nil || r.phase != ph {
		return nil, false
	}
	i, ok := s.creditFor(from, r.targets)
	if !ok || r.heard[i] {
		return nil, false
	}
	r.heard[i] = true
	r.quietSince = time.Now()
	if ph == voting && (!yes || inc != r.incs[i]) || s.onePhase && !yes {
		r.dec.Outcome = msg.OutcomeAbort
	}
	if r.left--; r.left > 0 {
		return nil, false
	}
	delete(s.rounds, rid)
	return r, true
}

// roundDone hands on a closed round: a vote goes back to the compute queue
// for decide, a termination caches a commit for retransmissions and sends
// the client its result.
func (s *AppServer) roundDone(rid id.ResultID, r *round) {
	if r.phase == voting {
		s.cfg.Hooks.since(rid, SpanPrepare, r.start)
		s.computeQ.Push(func() { s.decide(rid, r.dec) })
		return
	}
	s.cfg.Hooks.since(rid, SpanCommit, r.start)
	if r.dec.Outcome == msg.OutcomeCommit {
		s.cacheCommit(rid, r.dec)
	}
	s.cfg.Hooks.crash(PointBeforeResult, rid)
	s.sendResult(rid, r.dec)
}

// onReady steps every round with a database server's recovery notice,
// like the paper's "(receive ... or [Ready])" waits. The server lost its
// unprepared branches, so in place of a vote the Ready aborts the try; a
// Decide it had not acked may have died with it, so that is sent again.
func (s *AppServer) onReady(from id.NodeID) {
	var after []func()
	s.mu.Lock()
	for rid, r := range s.rounds {
		if r.phase == voting {
			if _, done := s.hearLocked(from, rid, voting, false, 0); done {
				after = append(after, func() { s.roundDone(rid, r) })
			}
		} else if i, ok := s.creditFor(from, r.targets); ok && !r.heard[i] {
			r.quietSince = time.Now()
			after = append(after, func() { s.sendDB(r.targets[i], r.out) })
		}
	}
	s.mu.Unlock()
	for _, f := range after {
		f()
	}
}

// resend is the demux's tick: a round that has heard nothing for a full
// ResendInterval re-sends to every target not yet heard. A failure-free
// round hears well within that and never re-sends. sendDB re-resolves each
// target, so after a promotion the re-send reaches the new primary.
func (s *AppServer) resend() {
	var after []func()
	now := time.Now()
	s.mu.Lock()
	for _, r := range s.rounds {
		if now.Sub(r.quietSince) < s.cfg.ResendInterval {
			continue
		}
		r.quietSince = now
		for i, db := range r.targets {
			if !r.heard[i] {
				after = append(after, func() { s.sendDB(db, r.out) })
			}
		}
	}
	s.mu.Unlock()
	for _, f := range after {
		f()
	}
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
	s.mu.Lock()
	if _, ok := s.committed[key]; !ok {
		s.commitOrder = fifoAdmit(s.commitOrder, s.cfg.CommitCacheSize, key,
			func(old id.RequestKey) { delete(s.committed, old) })
	}
	s.committed[key] = msg.Result{RID: rid, Dec: dec}
	s.mu.Unlock()
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

// cleanSweep performs one pass of Figure 6's outer loop. It snapshots and
// sorts the known tries once, and only when some peer is suspected.
func (s *AppServer) cleanSweep() {
	suspected := s.suspects()
	if len(suspected) == 0 {
		return
	}
	tries := s.log.KnownTries()
	sort.Slice(tries, func(i, j int) bool { return tries[i].Less(tries[j]) })
	for _, ai := range suspected {
		for _, rid := range tries {
			if s.wasCleaned(rid) {
				continue
			}
			owner, ok := s.log.ReadA(rid)
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
			dec, err := s.log.WriteD(s.ctx, rid, msg.Decision{Outcome: msg.OutcomeAbort})
			if err != nil {
				return // shutting down
			}
			s.startTerminate(rid, dec)
			s.markCleaned(rid)
		}
	}
}

// suspects lists the peers the failure detector suspects now.
func (s *AppServer) suspects() []id.NodeID {
	var out []id.NodeID
	for _, ai := range s.cfg.AppServers {
		if ai != s.cfg.Self && s.det.Suspects(ai) {
			out = append(out, ai)
		}
	}
	return out
}

// wasCleaned reports whether the cleaning thread already handled rid.
func (s *AppServer) wasCleaned(rid id.ResultID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cleaned[rid]
}

// markCleaned records rid in the cleaning dedup set, evicting the oldest
// entries beyond the configured cap.
func (s *AppServer) markCleaned(rid id.ResultID) {
	s.mu.Lock()
	if !s.cleaned[rid] {
		s.cleanOrder = fifoAdmit(s.cleanOrder, s.cfg.CommitCacheSize, rid,
			func(old id.ResultID) { delete(s.cleaned, old) })
		s.cleaned[rid] = true
	}
	s.mu.Unlock()
}

// DebugTry renders this server's view of one try for liveness diagnostics:
// register contents, queue membership and the failure-detector verdicts the
// cleaning thread acts on. It holds no lock while it reads the registers.
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
	if owner, ok := s.log.ReadA(rid); ok {
		fmt.Fprintf(&b, " regA=%s", owner)
	} else {
		fmt.Fprintf(&b, " regA=unset%s", inflight())
	}
	if dec, ok := s.log.ReadD(rid); ok {
		fmt.Fprintf(&b, " regD=%s(participants=%v)", dec.Outcome, dec.Participants)
	} else {
		fmt.Fprintf(&b, " regD=unset%s", inflight())
	}
	state := "none"
	s.mu.Lock()
	if r := s.rounds[rid]; r != nil {
		var heard []id.NodeID
		for i, db := range r.targets {
			if r.heard[i] {
				heard = append(heard, db)
			}
		}
		state = fmt.Sprintf("%s(heard=%v of %v)", r.phase, heard, r.targets)
	}
	_, cached := s.committed[rid.Request()]
	fmt.Fprintf(&b, " pending=%v round=%s cached=%v cleaned=%v",
		s.pending[rid], state, cached, s.cleaned[rid])
	s.mu.Unlock()
	fmt.Fprintf(&b, " suspects=%v", s.suspects())
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
	s     *AppServer
	rid   id.ResultID
	claim claimState
	// sqlStart is where the SQL span starts: at compute(), or once the
	// regA claim returns, so the claim counts as log-start alone.
	sqlStart time.Time
	// touched and incs are small linear-scan sets rather than maps: a try
	// touches a handful of shards at most, and two map allocations per try
	// were measurable on the batched hot path.
	touched []id.NodeID
	incs    []dbInc
}

// claimState is where a try stands with its lazy regA claim.
type claimState uint8

const (
	unclaimed  claimState = iota // no Exec yet: regA is not written
	claimOwned                   // this server won regA
	claimLost                    // another server owns the try, or the server is stopping
)

// errNotOwner fails every Exec of a try whose regA claim this server lost.
var errNotOwner = errors.New("core: another application server owns this try")

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
// complete (timeout, shutdown, database restarted mid-transaction, or the
// try is owned by another application server).
func (t *Tx) Exec(ctx context.Context, db id.NodeID, op msg.Op) (msg.OpResult, error) {
	if err := t.claimA(); err != nil {
		return msg.OpResult{}, err
	}
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

// claimA is Figure 5, line 6, made lazy: the try's first Exec claims it in
// regA before anything is sent, so no branch is ever opened by a server that
// does not own the try. A lost claim (line 7) fails this Exec and every later
// one; handleRequest then ends the try once compute() returns.
func (t *Tx) claimA() error {
	switch t.claim {
	case claimOwned:
		return nil
	case claimLost:
		return errNotOwner
	}
	s := t.s
	if s.onePhase {
		t.claim = claimOwned // nothing to write
		return nil
	}
	t0 := s.cfg.Hooks.now()
	winner, err := s.log.WriteA(s.ctx, t.rid, s.cfg.Self)
	if err != nil {
		t.claim = claimLost
		return err // shutting down
	}
	s.cfg.Hooks.since(t.rid, SpanLogStart, t0)
	s.cfg.Hooks.crash(PointAfterRegA, t.rid)
	if winner != s.cfg.Self {
		t.claim = claimLost
		return errNotOwner
	}
	t.claim = claimOwned
	t.sqlStart = s.cfg.Hooks.now()
	return nil
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
	ch := s.addExec(ex.CallID)
	defer s.removeExec(ex.CallID)

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

// --- pending Exec calls ------------------------------------------------------

func (s *AppServer) addExec(callID uint64) chan msg.ExecReply {
	var ch chan msg.ExecReply
	if v := s.execPool.Get(); v != nil {
		ch = v.(chan msg.ExecReply)
	} else {
		ch = make(chan msg.ExecReply, 2) // the reply, and room for one duplicate
	}
	s.mu.Lock()
	s.execs[callID] = ch
	s.mu.Unlock()
	return ch
}

func (s *AppServer) removeExec(callID uint64) {
	s.mu.Lock()
	ch := s.execs[callID]
	delete(s.execs, callID)
	s.mu.Unlock()
	if ch == nil {
		return
	}
	// Safe to recycle: routeExecReply sends while holding s.mu with the call
	// registered, so after removal the channel is quiescent; drain stray
	// duplicate replies before handing it to the next call.
	for {
		select {
		case <-ch:
		default:
			s.execPool.Put(ch)
			return
		}
	}
}

func (s *AppServer) routeExecReply(m msg.ExecReply) {
	s.mu.Lock()
	// The non-blocking send stays under the lock: once removeExec has run,
	// nothing may touch the channel again (it is recycled).
	if ch, ok := s.execs[m.CallID]; ok {
		select {
		case ch <- m:
		default: // duplicate reply
		}
	}
	s.mu.Unlock()
}

// Package core implements the paper's e-Transaction protocol — the client
// algorithm of Figure 2, the database-server algorithm of Figure 3, and the
// application-server algorithm of Figures 4-6 (compute thread, cleaning
// thread, prepare() and terminate()) — over the substrates in the sibling
// packages: wo-registers on Chandra–Toueg consensus, an eventually-perfect
// heartbeat failure detector, and XA database engines.
//
// The package generalizes the paper's single-client/single-request
// presentation in the ways README.md documents ("The concurrent client API",
// "Memory & GC"): registers and transaction branches are keyed by ResultID
// (client, request sequence, try), the client rebroadcasts periodically
// instead of waiting forever after its first broadcast, and the cleaning
// thread scans the set of register keys the replica has seen instead of an
// unbounded array.
//
// Figures 4-6 map onto a fixed set of goroutines, not one per try. Workers
// compute threads run Figure 5's steps that run user code or block on
// consensus: compute() — whose first Exec makes the regA claim — and, once
// the vote is in, the regD write. Figure 4's prepare() and terminate() are rounds, not blocking
// calls: per try, the phase and who has answered, in one map under the
// server's mutex, stepped by the demux on each vote, ack and Ready and
// re-sent on its tick after a full ResendInterval of silence. A closed vote
// goes back to the compute queue; a closed termination sends the client its
// result. A try waiting on a database holds no goroutine.
//
// Figure 5 is refined in one way: the regA claim is lazy. The paper writes
// regA (line 6) before compute(); here a try's first Tx.Exec, the first call
// that opens a transaction branch, makes the claim, before that Exec is
// sent. The e-Transaction properties constrain only what the database
// servers commit (A.1-A.3, V.2), and a try with no branch commits nothing
// anywhere, so at-most-once is vacuous for it and a recomputed result is as
// valid as the first. Hence:
//   - a lost claim fails that Exec and every later one, having sent
//     nothing, so the loser opened no branch; it stops once compute()
//     returns, with no decide and no reply, as at line 7;
//   - a try whose compute() succeeds with no claim (it read through
//     Tx.GetFast at most) is answered at once: commit with an empty dlist,
//     no regD, no commit-cache entry, no round. It has no regA entry for
//     the cleaner to find, and a crash before the reply is covered by the
//     client's retransmission (T.1), which is recomputed;
//   - a try whose compute() fails before any claim still decides abort
//     through regD, where it may meet a server that does own the try. Like
//     the cleaner's abort it cannot know that owner's branches, so its
//     dlist is unknown and termination reaches every database server;
//   - from its claim on, a try that opens a branch runs Figure 5 unchanged:
//     vote, regD, terminate — two register writes per commit, as in the
//     paper.
//
// Since two servers may both compute an unclaimed try, a Logic must decide
// whether to open a branch from the request, or from reads made through
// Exec, never from a GetFast snapshot: otherwise one server could answer a
// read while another commits a write for the same try.
//
// The baselines of the paper's Figures 7 and 8 differ from this protocol
// only in what a try's owner (regA) and decision (regD) are written to, so
// they are points of AppServer: every regA and regD access goes through its
// TryLog (AppServerConfig.Log). AR, the default, writes wo-registers over
// consensus, which arbitrate between executor and cleaner. Presumed-nothing
// 2PC (baseline.TwoPCLog) forces a start record at the claim and an outcome
// record at decide to the lone server's disk, and grants every write. The
// unreliable baseline (NoLog) writes nothing: a computed try sends its
// participants msg.Commit1P in one round, and a refusal aborts it, with no
// log-start, prepare or log-outcome span. A lone server's consensus node and
// heartbeat idle: with no peer, neither sends a message.
//
// There is one batched design and no batching switch: the paper's protocol
// is its depth-1 point. Every register write rides the cohort sequencer into
// a consensus slot, and every Prepare/Decide leaves at once, one per
// envelope. The cohort cap follows the application server's own sampled
// in-flight depth (EWMA-smoothed): one write per slot for a lone request —
// the paper's one consensus instance per write — widening toward 64 under
// pipelining. The database server is a two-stage pipeline: its loop drains
// the mailbox and serves one drain's Prepares and Decides through the
// engine's drain entry point with their records appended unforced, and its
// device goroutine pays one Sync for every drain held since the last one,
// then releases their votes and acks in drain order. That drain is the data
// tier's only batcher; the stable store combines nothing. No batch waits on
// a timer: each is what queued behind the work in flight, so at depth 1
// every forced record pays one fsync, as in the paper. Batching changes
// timing only, never protocol semantics or span meaning — the messages,
// register writes and forced-log rules are identical at every depth, and
// SpanPrepare and SpanCommit bound the same exchanges — only the batch
// boundaries move, and at depth 1 there are none.
//
// The database server has one execution discipline, queue-oriented and
// speculative; nothing in the protocol needs the engine to hold row locks
// from a key's first Exec until Decide, and it holds none. Every drained
// mailbox batch is planned into per-key FIFO run queues ordered
// deterministically — try order by ResultID, call order within a try — and
// each key's queue is drained by a dedicated runner goroutine, disjoint keys
// in parallel. The engine orders same-key steps on per-key chains and gates
// commitment instead (internal/xadb/spec.go): a vote waits until every chain
// predecessor has decided. A gated vote is parked in the engine, not in a
// goroutine; the drain whose decide opens the gate votes it under its own
// device force and sends it with its replies, and a sweep on a tick of the
// loop answers no to a vote parked past the engine's LockTimeout. OpSnapRead
// operations are split out of the drain and answered at the batch boundary,
// after the drain's decides apply, so Tx.GetFast sees a consistent
// last-executed-batch snapshot without entering the commit path. The planner
// lives in planner.go; Stats counts its batches and operations and the
// snapshot reads.
//
// On a replicated data tier (internal/repl) recovery has a second entry
// point. A shard primary streams every log record it appends to its group's
// backup appliers; when the primary is suspected, the promoted backup runs
// the *same* recovery path as a restarted server — replay the write-ahead
// log, re-seed in-doubt branches into their keys' chains, announce the new
// incarnation — except the log it replays is the one the stream built on its
// own stable store. The data server then guards the 2PC surface with a
// deposed flag (a NewPrimary announcement naming another node stops it
// serving Exec/Prepare/Decide), and the application server routes through
// the shared placement.View: outgoing messages to a boot identity are
// translated to the shard's current primary, incoming votes/acks/replies
// from a stale primary are rejected by epoch (AppServerStats.StaleRejects)
// and answered with a correction, and Exec calls re-send — to the new target
// only, never twice to the same node — when the view changes under a
// bounded-backoff retry loop. None of this machinery exists when the
// deployment is unreplicated: AppServerConfig.View and
// DataServerConfig.Repl are nil and every code path is the paper's.
//
// Memory is bounded by two garbage-collection layers, both extensions of
// the treatment the paper defers in Section 5. Per request, Retire discards
// the commit cache, cleaning dedup entries and both wo-registers of every
// try (and their watchers, via the consensus layer's Abandon) once the
// client is known past retransmitting. Per batch-log slot,
// AppServerConfig.RetainSlots switches on the watermark protocol: every server piggybacks its applied slot watermark on
// consensus messages and heartbeats, decided slots below the cluster-wide
// minimum minus the retention tail are truncated, and a replica that falls
// below the truncation floor is caught up by checkpoint state transfer
// (msg.Checkpoint) instead of decision replay. RetainSlots 0 keeps every
// decided slot — at depth 1, one per register write — the same
// unbounded class as the decided registers Retire reclaims. DebugTry prints
// the applied watermark, floor and live-slot gauge with the consensus
// counters.
//
// The package's concurrency and wire conventions are machine-checked by the
// etxlint suite (internal/lint, run via cmd/etxlint and CI's lint job):
// fields annotated `// guarded by mu` must be touched only under that
// mutex and no blocking call may run while one is held (lockheld), the
// demux switches over msg.Payload must stay exhaustive — ignored kinds are
// listed explicitly, never left to default (kindswitch) — and wall-clock
// reads are confined to injected clocks outside the protocol-identity
// packages (wallclock).
//
// One of those conventions is load-bearing enough to state as an invariant
// here: epoch fencing. Any message that carries an Epoch, Inc(arnation) or
// WM field is an assertion about *when* its sender held a role, and a
// handler must compare that field against its local fenced state — the
// shard epoch adopted from the last NewPrimary, the incarnation from the
// last announcement, the applied watermark — before letting the message
// mutate anything. Asynchrony means a deposed primary's votes, stream
// records and heartbeats can arrive arbitrarily late; a handler that
// applies them unfenced resurrects the old incarnation's authority and
// splits the group (the PR 9 stale-primary-vote bug was exactly this).
// The epochfence analyzer enforces the shape mechanically: fence first,
// or delegate the whole payload to a function that does, or carry an
// //etxlint:allow epochfence annotation explaining why fencing happened
// upstream.
package core

import (
	"time"

	"etx/internal/id"
)

// Span names the protocol components whose latency the hooks report; they
// correspond 1:1 to the rows of the paper's Figure 8.
type Span string

// Spans reported by the application server and client.
const (
	// SpanSQL is the business logic's data manipulation (Figure 8 "SQL").
	SpanSQL Span = "SQL"
	// SpanPrepare is the voting round at the databases (Figure 8 "prepare").
	SpanPrepare Span = "prepare"
	// SpanCommit is the decide/ack round at the databases (Figure 8 "commit").
	SpanCommit Span = "commit"
	// SpanLogStart is recording who executes the try: the regA write for the
	// replicated protocol (made at the try's first Exec; a try that opens
	// no branch has none), the forced start record for 2PC (Figure 8
	// "log-start").
	SpanLogStart Span = "log-start"
	// SpanLogOutcome is recording the decision: the regD write for the
	// replicated protocol, the forced outcome record for 2PC (Figure 8
	// "log-outcome").
	SpanLogOutcome Span = "log-outcome"
	// SpanStart and SpanEnd are the client-side request marshalling and
	// result delivery costs (Figure 8 "start"/"end").
	SpanStart Span = "start"
	SpanEnd   Span = "end"
	// SpanTotal is the client-observed end-to-end latency.
	SpanTotal Span = "total"
)

// CrashPoint names instants in the executor's path where tests inject
// crashes; they correspond to the failure scenarios of Figure 1 (c) and (d)
// and the failover experiment grid.
type CrashPoint string

// Crash points, in protocol order.
const (
	PointBeforeRegA   CrashPoint = "before-regA"
	PointAfterRegA    CrashPoint = "after-regA"
	PointAfterCompute CrashPoint = "after-compute"
	PointAfterPrepare CrashPoint = "after-prepare"
	PointAfterRegD    CrashPoint = "after-regD"
	PointBeforeResult CrashPoint = "before-result"
)

// Hooks carries optional instrumentation. All fields may be nil.
type Hooks struct {
	// Span reports a component latency for one try.
	Span func(rid id.ResultID, span Span, d time.Duration)
	// Crash is called at each CrashPoint of the executor path; tests use it
	// to take the server down at exact protocol instants. PointBeforeResult
	// is reached on the demux goroutine (on a compute thread for a try that
	// opened no branch), so a hook must not block.
	Crash func(point CrashPoint, rid id.ResultID)
}

func (h *Hooks) span(rid id.ResultID, s Span, d time.Duration) {
	if h != nil && h.Span != nil {
		h.Span(rid, s, d)
	}
}

// timing reports whether span measurements are consumed at all: the executor
// path skips its time.Now pairs otherwise (they are measurable overhead on
// the batched hot path).
func (h *Hooks) timing() bool { return h != nil && h.Span != nil }

// now returns the current time when spans are consumed, and the zero time
// otherwise.
func (h *Hooks) now() time.Time {
	if h.timing() {
		return time.Now()
	}
	return time.Time{}
}

// since mirrors time.Since for timestamps produced by now.
func (h *Hooks) since(rid id.ResultID, s Span, t0 time.Time) {
	if h.timing() {
		h.Span(rid, s, time.Since(t0))
	}
}

func (h *Hooks) crash(p CrashPoint, rid id.ResultID) {
	if h != nil && h.Crash != nil {
		h.Crash(p, rid)
	}
}

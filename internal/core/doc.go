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
// With a batch window configured the commit path additionally runs group
// commit end to end: application servers aggregate Prepare/Decide fan-out to
// the same participant into msg.Batch envelopes, database servers drain
// their mailbox and serve those rounds through the engine's batched entry
// points, and the stable store combines the resulting forced writes into
// shared fsyncs. Batching changes no span semantics — SpanPrepare and
// SpanCommit still bound the same exchanges; the shared fsync simply makes
// them cheaper per request — so the Figure 8 rows remain comparable with
// batching on or off.
//
// AppServerConfig.AdaptiveWindows makes every batching knob self-tuning: the
// server samples its own in-flight request depth (EWMA-smoothed) and sizes
// the outbound-aggregation cap, the cohort-sequencer cap and hold, and the
// store's group-commit window to it — collapsing to unbatched behaviour for
// a lone request, widening toward the configured caps under pipelining.
// Adaptation changes timing only, never protocol semantics: the messages,
// register writes and forced-log rules are identical at every depth, so a
// deployment with windows at 0 and adaptation off remains exactly the
// paper's protocol, and an adaptive one is the same protocol with different
// batch boundaries.
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
// shared device force and sends it with its replies, and a periodic sweep
// answers no to a vote parked past the engine's LockTimeout. OpSnapRead
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
// try — including undecided register instances, via the consensus layer's
// Abandon — once the client is known past retransmitting. Per batch-log
// slot (cohort consensus), AppServerConfig.RetainSlots switches on the
// watermark protocol: every server piggybacks its applied slot watermark on
// consensus messages and heartbeats, decided slots below the cluster-wide
// minimum minus the retention tail are truncated, and a replica that falls
// below the truncation floor is caught up by checkpoint state transfer
// (msg.Checkpoint) instead of decision replay. DebugTry prints the applied
// watermark, floor and live-slot gauge with the consensus counters.
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
	// replicated protocol, the forced start record for 2PC (Figure 8
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
	// to take the server down at exact protocol instants.
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

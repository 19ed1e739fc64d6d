// Package msg defines every message exchanged by the e-Transaction stack and a
// compact self-describing binary codec for them.
//
// The vocabulary mirrors Appendix 1 of the paper plus the messages of the
// substrates the paper assumes: the Chandra–Toueg consensus that implements
// wo-registers (Estimate/Propose/Ack/Nack/Decision), the heartbeat failure
// detector, business-data operations against the database tier (Exec), and the
// reliable-channel layer (RData/RAck) that turns a lossy network into the
// paper's reliable channels.
//
// In-memory transports pass Envelope values directly; the TCP transport uses
// Encode/Decode. The codec is hand-rolled over encoding/binary varints so that
// round-trip behaviour is easy to property-test and no reflection is involved.
package msg

import (
	"fmt"

	"etx/internal/id"
)

// Kind discriminates payload types on the wire.
type Kind uint8

// Message kinds. Values start at 1; the zero Kind is invalid.
const (
	// Three-tier protocol messages (Figures 2-6 of the paper).
	KindRequest   Kind = iota + 1 // client -> app server
	KindResult                    // app server -> client
	KindPrepare                   // app server -> db server (XA prepare)
	KindVote                      // db server -> app server
	KindDecide                    // app server -> db server (XA commit/abort)
	KindAckDecide                 // db server -> app server
	KindReady                     // db server -> app servers, recovery notification
	KindExec                      // app server -> db server, business-data operation
	KindExecReply                 // db server -> app server

	// Consensus messages (wo-register substrate).
	KindEstimate // participant -> round coordinator
	KindPropose  // round coordinator -> all
	KindAck      // participant -> round coordinator
	KindNack     // participant -> round coordinator
	KindDecision // reliable broadcast of the decided value

	// Failure-detector messages.
	KindHeartbeat

	// Reliable-channel framing.
	KindRData
	KindRAck

	// Baseline-protocol messages (Figure 7 a and c): single-phase commit for
	// the unreliable baseline, and the primary-backup start/outcome records.
	KindCommit1P
	KindPBStart
	KindPBStartAck
	KindPBOutcome
	KindPBOutcomeAck

	// Batch framing: several protocol payloads to one destination in one
	// envelope (a database server's group-commit replies).
	KindBatch

	// Cohort-consensus framing: a forwarded batch of wo-register operations
	// bound for a peer's cohort sequencer.
	KindRegOps

	// Batch-log state transfer: a node asked about a slot it has truncated
	// answers with its floor and the applied register effects.
	KindCheckpoint

	// Data-tier replication: a shard primary streams its write-ahead-log
	// records to the shard's backups (ReplRecord/ReplAck), and a promoted
	// backup announces the shard's new epoch-stamped primary (NewPrimary).
	KindReplRecord
	KindReplAck
	KindNewPrimary
)

// String returns the mnemonic name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "Request"
	case KindResult:
		return "Result"
	case KindPrepare:
		return "Prepare"
	case KindVote:
		return "Vote"
	case KindDecide:
		return "Decide"
	case KindAckDecide:
		return "AckDecide"
	case KindReady:
		return "Ready"
	case KindExec:
		return "Exec"
	case KindExecReply:
		return "ExecReply"
	case KindEstimate:
		return "Estimate"
	case KindPropose:
		return "Propose"
	case KindAck:
		return "Ack"
	case KindNack:
		return "Nack"
	case KindDecision:
		return "Decision"
	case KindHeartbeat:
		return "Heartbeat"
	case KindRData:
		return "RData"
	case KindRAck:
		return "RAck"
	case KindCommit1P:
		return "Commit1P"
	case KindPBStart:
		return "PBStart"
	case KindPBStartAck:
		return "PBStartAck"
	case KindPBOutcome:
		return "PBOutcome"
	case KindPBOutcomeAck:
		return "PBOutcomeAck"
	case KindBatch:
		return "Batch"
	case KindRegOps:
		return "RegOps"
	case KindCheckpoint:
		return "Checkpoint"
	case KindReplRecord:
		return "ReplRecord"
	case KindReplAck:
		return "ReplAck"
	case KindNewPrimary:
		return "NewPrimary"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Vote is a database server's answer to a prepare request.
type Vote uint8

// Vote values, per the paper's Vote = {yes, no} domain.
const (
	VoteYes Vote = iota + 1
	VoteNo
)

// String returns "yes" or "no".
func (v Vote) String() string {
	switch v {
	case VoteYes:
		return "yes"
	case VoteNo:
		return "no"
	default:
		return fmt.Sprintf("vote(%d)", uint8(v))
	}
}

// Outcome is the fate of a result (i.e., of its transaction), per the paper's
// Outcome = {commit, abort} domain.
type Outcome uint8

// Outcome values.
const (
	OutcomeCommit Outcome = iota + 1
	OutcomeAbort
)

// String returns "commit" or "abort".
func (o Outcome) String() string {
	switch o {
	case OutcomeCommit:
		return "commit"
	case OutcomeAbort:
		return "abort"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Decision is the pair (result, outcome) the paper stores in regD and returns
// to the client, extended with the try's dlist. The paper's (nil, abort) is
// Decision{Result: nil, Outcome: OutcomeAbort}.
type Decision struct {
	Result  []byte
	Outcome Outcome
	// Participants is the paper's dlist for this try: the database servers
	// the transaction branch touched, which are exactly the servers
	// termination must drive the outcome to. A nil slice means the dlist is
	// unknown (a cleaning thread aborting a try whose executor crashed before
	// recording it) and termination falls back to every database server; an
	// empty non-nil slice means the try touched no data at all.
	Participants []id.NodeID
}

// Committed reports whether the decision carries a committed result.
func (d Decision) Committed() bool { return d.Outcome == OutcomeCommit }

// String renders the decision compactly.
func (d Decision) String() string {
	return fmt.Sprintf("(%dB,%s)", len(d.Result), d.Outcome)
}

// RegArray names one of the two wo-register arrays of the protocol.
type RegArray uint8

// Register arrays: regA holds the executing application server of a try,
// regD holds the decision of a try. RegBatch is not a register array at all
// but the keyspace of cohort consensus: one instance per slot of the shared
// batch log, whose decided value is an ordered RegOp batch applied to the
// real registers in slot order.
const (
	RegA RegArray = iota + 1
	RegD
	RegBatch
)

// String returns "regA", "regD" or "slot".
func (a RegArray) String() string {
	switch a {
	case RegA:
		return "regA"
	case RegD:
		return "regD"
	case RegBatch:
		return "slot"
	default:
		return fmt.Sprintf("reg(%d)", uint8(a))
	}
}

// RegKey identifies one wo-register: one slot of regA or regD for one try.
// It doubles as the consensus instance identifier. A RegBatch key identifies
// one slot of the cohort-consensus batch log instead: Slot is set and RID is
// zero.
type RegKey struct {
	Array RegArray
	RID   id.ResultID
	Slot  uint64
}

// SlotKey returns the instance key of batch-log slot n.
func SlotKey(n uint64) RegKey { return RegKey{Array: RegBatch, Slot: n} }

// String renders the register key, e.g. "regD[client-1/7#3]" or "slot[12]".
func (k RegKey) String() string {
	if k.Array == RegBatch {
		return fmt.Sprintf("slot[%d]", k.Slot)
	}
	return k.Array.String() + "[" + k.RID.String() + "]"
}

// OpCode enumerates the business-data operations a database server executes
// inside a transaction branch. They abstract the SQL statements the paper's
// compute() issues against Oracle.
type OpCode uint8

// Operation codes.
const (
	OpGet     OpCode = iota + 1 // read the value of Key
	OpPut                       // write Val to Key
	OpAdd                       // add Delta to the integer value at Key; returns the new value
	OpCheckGE                   // if integer at Key < Delta, poison the branch (db will vote no)
	OpSleep                     // simulated data-manipulation work of Delta nanoseconds (cost model)
	// OpSnapRead reads Key's last committed value outside any transaction
	// branch: the database server answers it from the committed store at a
	// batch boundary, without locks, without a branch and without entering
	// the commit path (the queue-execution read-only fast path).
	OpSnapRead
)

// String returns the mnemonic of the op code.
func (c OpCode) String() string {
	switch c {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpAdd:
		return "add"
	case OpCheckGE:
		return "checkge"
	case OpSleep:
		return "sleep"
	case OpSnapRead:
		return "snapread"
	default:
		return fmt.Sprintf("op(%d)", uint8(c))
	}
}

// Op is one business-data operation executed within a transaction branch.
type Op struct {
	Code  OpCode
	Key   string
	Delta int64
	Val   []byte
}

// OpResult is the database server's answer to an Op.
type OpResult struct {
	Val []byte // value read (OpGet)
	Num int64  // numeric result (OpAdd: new value; OpGet on int keys)
	OK  bool   // false if the op failed (lock timeout, check violation, ...)
	Err string // human-readable failure cause when !OK
}

// Payload is implemented by every concrete message body.
type Payload interface {
	Kind() Kind
}

// Envelope is one message in flight: addressing plus a typed payload.
type Envelope struct {
	From    id.NodeID
	To      id.NodeID
	Payload Payload
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("%s -> %s: %s", e.From, e.To, e.Payload.Kind())
}

// --- Three-tier protocol payloads -----------------------------------------

// Request carries a client request for try RID (the paper's [Request,request,j]).
type Request struct {
	RID  id.ResultID
	Body []byte
}

// Kind implements Payload.
func (Request) Kind() Kind { return KindRequest }

// Result carries the decision for try RID back to the client (the paper's
// [Result,j,decision]).
type Result struct {
	RID id.ResultID
	Dec Decision
}

// Kind implements Payload.
func (Result) Kind() Kind { return KindResult }

// Prepare asks a database server to vote on try RID (the paper's [Prepare,j]).
type Prepare struct {
	RID id.ResultID
}

// Kind implements Payload.
func (Prepare) Kind() Kind { return KindPrepare }

// VoteMsg is a database server's vote for try RID (the paper's [Vote,j,vote]).
// Inc is the server's incarnation number: application servers use it to detect
// that the server crashed (losing unprepared work) between compute() and
// prepare(), which in the paper manifests as a broken database connection.
type VoteMsg struct {
	RID id.ResultID
	V   Vote
	Inc uint64
}

// Kind implements Payload.
func (VoteMsg) Kind() Kind { return KindVote }

// Decide carries the outcome for try RID to a database server (the paper's
// [Decide,j,outcome]).
type Decide struct {
	RID id.ResultID
	O   Outcome
}

// Kind implements Payload.
func (Decide) Kind() Kind { return KindDecide }

// AckDecide acknowledges a Decide (the paper's [AckDecide,j]). O reports the
// outcome the server actually applied, which by property A.3 always equals the
// requested one; carrying it lets tests assert that.
type AckDecide struct {
	RID id.ResultID
	O   Outcome
}

// Kind implements Payload.
func (AckDecide) Kind() Kind { return KindAckDecide }

// Ready is a database server's recovery notification (the paper's [Ready]).
// Inc is the server's new incarnation number.
type Ready struct {
	Inc uint64
}

// Kind implements Payload.
func (Ready) Kind() Kind { return KindReady }

// Exec asks a database server to execute one business-data operation inside
// the transaction branch of try RID. CallID correlates the reply.
type Exec struct {
	RID    id.ResultID
	CallID uint64
	Op     Op
}

// Kind implements Payload.
func (Exec) Kind() Kind { return KindExec }

// ExecReply answers an Exec. Inc is the server's incarnation (see VoteMsg).
type ExecReply struct {
	RID    id.ResultID
	CallID uint64
	Rep    OpResult
	Inc    uint64
}

// Kind implements Payload.
func (ExecReply) Kind() Kind { return KindExecReply }

// --- Consensus payloads (wo-register substrate) ----------------------------

// Estimate is a participant's phase-1 message to the coordinator of Round:
// its current estimate Est, adopted in round TS (0 = initial). WM piggybacks
// the sender's applied batch-log watermark (see Checkpoint).
type Estimate struct {
	Reg   RegKey
	Round uint32
	TS    uint32
	Est   []byte
	WM    uint64
}

// Kind implements Payload.
func (Estimate) Kind() Kind { return KindEstimate }

// Propose is the coordinator's phase-2 proposal for Round. WM piggybacks the
// sender's applied batch-log watermark.
type Propose struct {
	Reg   RegKey
	Round uint32
	Val   []byte
	WM    uint64
}

// Kind implements Payload.
func (Propose) Kind() Kind { return KindPropose }

// CAck is a participant's positive phase-3 answer for Round. WM piggybacks
// the sender's applied batch-log watermark.
type CAck struct {
	Reg   RegKey
	Round uint32
	WM    uint64
}

// Kind implements Payload.
func (CAck) Kind() Kind { return KindAck }

// CNack is a participant's negative phase-3 answer for Round (it suspected the
// coordinator). WM piggybacks the sender's applied batch-log watermark.
type CNack struct {
	Reg   RegKey
	Round uint32
	WM    uint64
}

// Kind implements Payload.
func (CNack) Kind() Kind { return KindNack }

// CDecision carries the decided value of a consensus instance: the deciding
// coordinator sends it to every peer, and any node that holds a decision
// answers a laggard's estimate or proposal with it. WM piggybacks the
// sender's applied batch-log watermark.
type CDecision struct {
	Reg RegKey
	Val []byte
	WM  uint64
}

// Kind implements Payload.
func (CDecision) Kind() Kind { return KindDecision }

// --- Failure detector payloads ---------------------------------------------

// Heartbeat is the periodic liveness beacon among application servers. WM
// piggybacks the sender's applied batch-log watermark, so watermarks keep
// flowing (and batch-log truncation keeps making progress) even when no
// consensus traffic is in flight.
type Heartbeat struct {
	Seq uint64
	WM  uint64
}

// Kind implements Payload.
func (Heartbeat) Kind() Kind { return KindHeartbeat }

// --- Reliable-channel framing ----------------------------------------------

// RData wraps an application payload with a per-(sender,receiver) sequence
// number; the reliable-channel layer retransmits it until acknowledged and the
// receiver suppresses duplicates, implementing the paper's reliable channels
// over a lossy network. Every RData also carries the acknowledgement state of
// the opposite direction, so request/reply traffic acknowledges itself.
type RData struct {
	// Session identifies the sender's incarnation: Seq and Low count within
	// it. It grows across restarts of one identity, so a receiver can tell a
	// successor's numbering (reset dedupe state) from a predecessor's (drop).
	Session uint64
	Seq     uint64
	// Low is the sender's lowest unacknowledged sequence number toward this
	// receiver: nothing below it will ever be sent again, so a receiver that
	// has not seen those numbers (it restarted) skips its watermark past them.
	Low uint64
	// AckSession and Ack are the piggybacked cumulative acknowledgement:
	// every message of the receiver's incarnation AckSession numbered Ack or
	// below has been delivered at the sender. Zero means nothing to say.
	AckSession uint64
	Ack        uint64
	Inner      Payload
}

// Kind implements Payload.
func (RData) Kind() Kind { return KindRData }

// RAck is the standalone cumulative acknowledgement, sent only when no RData
// travelled the other way in time to carry it: every message of incarnation
// Session numbered Seq or below has been delivered.
type RAck struct {
	Session uint64
	Seq     uint64
}

// Kind implements Payload.
func (RAck) Kind() Kind { return KindRAck }

// --- Baseline-protocol payloads ---------------------------------------------

// Commit1P asks a database server for a single-phase commit of try RID (the
// unreliable baseline of Figure 7a: no vote, no replication). Acknowledged
// with AckDecide.
type Commit1P struct {
	RID id.ResultID
}

// Kind implements Payload.
func (Commit1P) Kind() Kind { return KindCommit1P }

// PBStart is the primary-backup scheme's start record (Figure 7c "start"):
// the primary tells the backup a request is in progress before touching the
// databases.
type PBStart struct {
	RID  id.ResultID
	Body []byte
}

// Kind implements Payload.
func (PBStart) Kind() Kind { return KindPBStart }

// PBStartAck acknowledges a PBStart.
type PBStartAck struct {
	RID id.ResultID
}

// Kind implements Payload.
func (PBStartAck) Kind() Kind { return KindPBStartAck }

// PBOutcome is the primary-backup scheme's outcome record (Figure 7c
// "outcome"): the decided result, recorded at the backup before commitment.
type PBOutcome struct {
	RID id.ResultID
	Dec Decision
}

// Kind implements Payload.
func (PBOutcome) Kind() Kind { return KindPBOutcome }

// PBOutcomeAck acknowledges a PBOutcome.
type PBOutcomeAck struct {
	RID id.ResultID
}

// Kind implements Payload.
func (PBOutcomeAck) Kind() Kind { return KindPBOutcomeAck }

// --- Batch framing -----------------------------------------------------------

// Batch packs several payloads bound for the same destination into one
// envelope. Database servers answer a batched round with a Batch of
// votes/acks whose forced log writes shared one device force; application
// servers treat it exactly as if its members had arrived back to back.
// Batches do not nest.
type Batch struct {
	Msgs []Payload
}

// Kind implements Payload.
func (Batch) Kind() Kind { return KindBatch }

// --- Cohort-consensus framing -------------------------------------------------

// RegOp is one wo-register operation inside a cohort: write Val into the
// register Reg (first write wins). Reg must name a real register (regA or
// regD), never a batch slot.
type RegOp struct {
	Reg RegKey
	Val []byte
}

// RegOps forwards a batch of register operations to a peer's cohort
// sequencer: the sender's writes ride the receiver's next batch-consensus
// slot instead of contending for slots of their own. The receiver
// deduplicates by register, so re-forwarding after a timeout is harmless.
type RegOps struct {
	Ops []RegOp
}

// Kind implements Payload.
func (RegOps) Kind() Kind { return KindRegOps }

// Checkpoint is the batch-log state-transfer answer: a node asked about a
// slot at or below its truncation floor cannot replay the slot's decision
// (it was pruned), so it ships its Floor — every slot <= Floor is applied and
// truncated — plus Regs, the register effects it currently holds. The laggard
// installs the effects, fast-forwards its application cursor past Floor, and
// never re-decides the pruned prefix. Regs must name real registers (regA or
// regD), never batch slots.
type Checkpoint struct {
	Floor uint64
	Regs  []RegOp
}

// Kind implements Payload.
func (Checkpoint) Kind() Kind { return KindCheckpoint }

// --- Data-tier replication ----------------------------------------------------

// ReplRecord streams one write-ahead-log record from a shard primary to a
// backup. Seq is the primary's replication sequence number (1-based,
// contiguous per stream), Inc the primary's current incarnation — the backup
// persists it as an incarnation floor, so a promoted backup always opens with
// a strictly higher incarnation than any the old primary served under — and
// Rec is the wal-encoded record. The primary sends the record to every backup
// before the effect it describes is acknowledged to the application tier, so
// over reliable FIFO channels every acknowledged effect reaches every live
// backup's mailbox.
type ReplRecord struct {
	Seq uint64
	Inc uint64
	Rec []byte
}

// Kind implements Payload.
func (ReplRecord) Kind() Kind { return KindReplRecord }

// ReplAck is a backup's cumulative acknowledgement: every ReplRecord up to
// and including Seq is applied to its log. Replication is asynchronous — the
// primary never waits for it — but the ack stream bounds the observable lag.
type ReplAck struct {
	Seq uint64
}

// Kind implements Payload.
func (ReplAck) Kind() Kind { return KindReplAck }

// NewPrimary announces the current primary of a shard's replica group under
// an epoch: a promoted backup broadcasts it to the application tier and its
// group after taking over, and an application server answers a stale claim
// (Epoch at or below the one it holds, from a server that is not the current
// primary) with its own higher-epoch entry so a deposed primary learns it has
// been passed over. Receivers accept only strictly increasing epochs per
// shard.
type NewPrimary struct {
	Shard   uint64
	Epoch   uint64
	Primary id.NodeID
}

// Kind implements Payload.
func (NewPrimary) Kind() Kind { return KindNewPrimary }

// Compile-time interface compliance checks.
var (
	_ Payload = Request{}
	_ Payload = Result{}
	_ Payload = Prepare{}
	_ Payload = VoteMsg{}
	_ Payload = Decide{}
	_ Payload = AckDecide{}
	_ Payload = Ready{}
	_ Payload = Exec{}
	_ Payload = ExecReply{}
	_ Payload = Estimate{}
	_ Payload = Propose{}
	_ Payload = CAck{}
	_ Payload = CNack{}
	_ Payload = CDecision{}
	_ Payload = Heartbeat{}
	_ Payload = RData{}
	_ Payload = RAck{}
	_ Payload = Commit1P{}
	_ Payload = PBStart{}
	_ Payload = PBStartAck{}
	_ Payload = PBOutcome{}
	_ Payload = PBOutcomeAck{}
	_ Payload = Batch{}
	_ Payload = RegOps{}
	_ Payload = Checkpoint{}
	_ Payload = ReplRecord{}
	_ Payload = ReplAck{}
	_ Payload = NewPrimary{}
)

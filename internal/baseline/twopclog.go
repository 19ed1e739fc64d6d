package baseline

import (
	"context"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/wal"
)

// TwoPCLog is presumed-nothing two-phase commit's coordinator log, the
// core.TryLog of the Figure 7(b) point. WriteA forces a start record before
// the try's first branch opens and WriteD forces its outcome record before
// the decision goes out, as the paper describes its measured 2PC ("the
// application server logs information about the transaction before it is
// started and after the outcome has been determined; logging is a
// synchronous operation"). Nothing arbitrates: there is one coordinator, so
// every write is granted. Nothing reads the log back either: a coordinator
// that crashes does not recover, so its client learns nothing and the
// prepared databases block, the limitations the e-Transaction protocol
// removes.
type TwoPCLog struct{ log *wal.Log }

// NewTwoPCLog opens the coordinator log on st, the coordinator's local disk.
func NewTwoPCLog(st *stablestore.Store) *TwoPCLog { return &TwoPCLog{log: wal.New(st)} }

// WriteA forces rid's start record and grants owner the try.
func (l *TwoPCLog) WriteA(_ context.Context, rid id.ResultID, owner id.NodeID) (id.NodeID, error) {
	l.log.Append(wal.Record{Type: wal.RecPrepared, RID: rid}, true)
	return owner, nil
}

// WriteD forces rid's outcome record and returns dec.
func (l *TwoPCLog) WriteD(_ context.Context, rid id.ResultID, dec msg.Decision) (msg.Decision, error) {
	typ := wal.RecAborted
	if dec.Outcome == msg.OutcomeCommit {
		typ = wal.RecCommitted
	}
	l.log.Append(wal.Record{Type: typ, RID: rid}, true)
	return dec, nil
}

// ReadA, ReadD and KnownTries find nothing: the log is write-only.
func (l *TwoPCLog) ReadA(id.ResultID) (id.NodeID, bool)    { return id.NodeID{}, false }
func (l *TwoPCLog) ReadD(id.ResultID) (msg.Decision, bool) { return msg.Decision{}, false }
func (l *TwoPCLog) KnownTries() []id.ResultID              { return nil }

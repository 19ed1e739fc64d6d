package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
)

// mustDebug fails unless srv's dump of rid contains every want.
func mustDebug(t *testing.T, srv *AppServer, rid id.ResultID, want ...string) {
	t.Helper()
	dump := srv.DebugTry(rid)
	for _, w := range want {
		if !strings.Contains(dump, w) {
			t.Errorf("DebugTry = %q, missing %q", dump, w)
		}
	}
}

// TestReadOnlyTrySkipsRegisters: a try that only reads through GetFast
// opens no branch, so its result goes out straight from compute(): no
// consensus proposal, neither register written, no Prepare or Decide, and a
// commit naming an empty (not unknown) dlist.
func TestReadOnlyTrySkipsRegisters(t *testing.T) {
	net := testNet(t)
	db := newScriptedDB(t, net, 1, nil, nil)
	srv := startLogicServer(t, net, 1, time.Hour, LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		if _, _, err := tx.GetFast(ctx, "k"); err != nil {
			return nil, err
		}
		return []byte("read"), nil
	}), db)
	cl := rawClient{attach(t, net, id.Client(1))}

	before := srv.ConsensusStats().Proposes
	rid := cl.issue(1)
	dec := cl.result(t, rid)
	if dec.Outcome != msg.OutcomeCommit || string(dec.Result) != "read" {
		t.Fatalf("decision = %s %q, want commit \"read\"", dec.Outcome, dec.Result)
	}
	if dec.Participants == nil || len(dec.Participants) != 0 {
		t.Fatalf("participants = %#v, want empty and non-nil", dec.Participants)
	}
	if got := srv.ConsensusStats().Proposes; got != before {
		t.Fatalf("proposes %d -> %d, want none for a read-only try", before, got)
	}
	if p, d := db.counts(rid); p != 0 || d != 0 || db.execCount() != 1 {
		t.Fatalf("prepares = %d, decides = %d, execs = %d; want 0, 0 and the one snapshot read", p, d, db.execCount())
	}
	mustDebug(t, srv, rid, "regA=unset", "regD=unset", "cached=false", "round=none")
}

// TestLostLazyClaimSendsNothing: a server that loses the try's regA claim at
// its first Exec sends that Exec nowhere, so no branch is opened, and it
// answers the client nothing: the owner does (Figure 5, line 7).
func TestLostLazyClaimSendsNothing(t *testing.T) {
	net := testNet(t)
	db := newScriptedDB(t, net, 1, nil, nil)
	execErr := make(chan error, 1)
	srv := startLogicServer(t, net, 1, time.Hour, LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		_, err := tx.Exec(ctx, db.self, msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1})
		execErr <- err
		if err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}), db)
	cl := rawClient{attach(t, net, id.Client(1))}

	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	other := id.AppServer(2)
	if owner, err := srv.Registers().WriteA(context.Background(), rid, other); err != nil || owner != other {
		t.Fatalf("pre-claim: owner %s, err %v", owner, err)
	}
	cl.issue(1)
	select {
	case err := <-execErr:
		if !errors.Is(err, errNotOwner) {
			t.Fatalf("Exec error = %v, want %v", err, errNotOwner)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compute never ran")
	}
	select {
	case env := <-cl.ep.Recv():
		t.Fatalf("the losing server answered: %+v", env.Payload)
	case <-time.After(200 * time.Millisecond):
	}
	if n := db.execCount(); n != 0 {
		t.Fatalf("the losing server sent %d Execs, want 0", n)
	}
	mustDebug(t, srv, rid, "regA="+other.String(), "regD=unset", "round=none")
}

// TestUnclaimedFailureAbortsThroughRegD: a compute() that fails before any
// Exec still decides abort through regD — where it may meet a server that
// owns the try — with an unknown dlist, so every database server hears the
// abort. regA stays unset, and the client's next try commits.
func TestUnclaimedFailureAbortsThroughRegD(t *testing.T) {
	net := testNet(t)
	db := newScriptedDB(t, net, 1,
		func(d *scriptedDB, m msg.Prepare, _ int) { d.voteYes(m.RID) },
		func(d *scriptedDB, m msg.Decide, _ int) { d.ack(m) })
	srv := startLogicServer(t, net, 1, time.Hour, LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		if tx.RID().Try == 1 {
			return nil, errors.New("refused before any Exec")
		}
		if _, err := tx.Exec(ctx, db.self, msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1}); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	}), db)
	cl := rawClient{attach(t, net, id.Client(1))}

	rid := cl.issueTry(1, 1)
	if dec := cl.result(t, rid); dec.Outcome != msg.OutcomeAbort {
		t.Fatalf("try 1 outcome = %s, want abort", dec.Outcome)
	}
	mustDebug(t, srv, rid, "regA=unset", "regD=abort(participants=[])")
	if p, d := db.counts(rid); p != 0 || d != 1 {
		t.Fatalf("try 1: prepares = %d, decides = %d; want 0 and 1", p, d)
	}

	rid = cl.issueTry(1, 2)
	if dec := cl.result(t, rid); dec.Outcome != msg.OutcomeCommit {
		t.Fatalf("try 2 outcome = %s, want commit", dec.Outcome)
	}
	mustDebug(t, srv, rid, "regA="+appID.String(), "regD=commit")
}

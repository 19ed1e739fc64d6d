package core

import (
	"runtime"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/xadb"
)

// dbRig is one database server over a simulated device, driven by an
// application-server endpoint of the test's own.
type dbRig struct {
	srv   *DataServer
	store *stablestore.Store
	app   transport.Endpoint
}

// startDB starts a database server whose device force takes force; the
// engine opens on a free device, so opening pays nothing.
func startDB(t *testing.T, force, lockTimeout time.Duration) *dbRig {
	t.Helper()
	net := testNet(t)
	store := stablestore.New(0)
	engine, err := xadb.Open(store, xadb.Config{Self: id.DBServer(1), LockTimeout: lockTimeout})
	if err != nil {
		t.Fatal(err)
	}
	store.SetForceLatency(force)
	srv, err := NewDataServer(DataServerConfig{
		Self:       id.DBServer(1),
		AppServers: []id.NodeID{appID},
		Engine:     engine,
		Endpoint:   attach(t, net, id.DBServer(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	r := &dbRig{srv: srv, store: store, app: attach(t, net, appID)}
	t.Cleanup(func() {
		store.SetForceLatency(0) // the held drains' last force need not wait
		srv.Stop()
	})
	return r
}

// rid names try `try` of client 1's request seq.
func rid(seq, try uint64) id.ResultID {
	return id.ResultID{Client: id.Client(1), Seq: seq, Try: try}
}

func (r *dbRig) send(p msg.Payload) {
	_ = r.app.Send(msg.Envelope{To: id.DBServer(1), Payload: p})
}

// recv returns the next envelope the server sends the test's application
// server, or fails the test after within.
func (r *dbRig) recv(t *testing.T, within time.Duration) msg.Payload {
	t.Helper()
	select {
	case env := <-r.app.Recv():
		return env.Payload
	case <-time.After(within):
		t.Fatalf("no reply within %v", within)
		return nil
	}
}

// TestNoGoroutinePerDrain: a thousand Prepares queued behind a one-second
// force are drained, voted and held for the next force without a goroutine
// per drain or per message.
func TestNoGoroutinePerDrain(t *testing.T) {
	const prepares = 1000
	r := startDB(t, time.Second, time.Minute)
	time.Sleep(20 * time.Millisecond) // let the server's own goroutines settle
	idle := runtime.NumGoroutine()

	r.send(msg.Prepare{RID: rid(0, 1)}) // its force holds the device for a second
	for seq := uint64(1); seq <= prepares; seq++ {
		r.send(msg.Prepare{RID: rid(seq, 1)})
	}
	for deadline := time.Now().Add(500 * time.Millisecond); len(r.srv.Engine().InDoubt()) < prepares+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d Prepares voted while the first force was in flight", len(r.srv.Engine().InDoubt()), prepares+1)
		}
	}
	if grown := runtime.NumGoroutine() - idle; grown >= 10 {
		t.Fatalf("%d Prepares queued behind a force added %d goroutines, want < 10", prepares, grown)
	}
}

// TestParkedVoteLeavesWithDecidingDrain pins when a parked vote leaves: B's
// Prepare parks behind A's undecided write, and A's Decide releases it —
// B's vote leaves with A's ack, in one Batch envelope from that one drain,
// under one device force. The vote-gate bound is an hour, so no sweep tick
// can have answered it.
func TestParkedVoteLeavesWithDecidingDrain(t *testing.T) {
	r := startDB(t, time.Microsecond, time.Hour)
	a, b := rid(1, 1), rid(2, 1)
	for i, tr := range []id.ResultID{a, b} {
		r.send(msg.Exec{RID: tr, CallID: uint64(i + 1), Op: msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1}})
		if rep, ok := r.recv(t, time.Second).(msg.ExecReply); !ok || !rep.Rep.OK {
			t.Fatalf("exec of %s: %+v", tr, rep)
		}
	}
	r.send(msg.Prepare{RID: a})
	if v, ok := r.recv(t, time.Second).(msg.VoteMsg); !ok || v.RID != a || v.V != msg.VoteYes {
		t.Fatalf("A's vote = %+v, want yes", v)
	}
	r.send(msg.Prepare{RID: b})
	select {
	case env := <-r.app.Recv():
		t.Fatalf("B's gated vote answered before A decided: %+v", env.Payload)
	case <-time.After(50 * time.Millisecond):
	}

	syncs := r.store.Syncs()
	r.send(msg.Decide{RID: a, O: msg.OutcomeCommit})
	batch, ok := r.recv(t, time.Second).(msg.Batch)
	if !ok || len(batch.Msgs) != 2 {
		t.Fatalf("deciding drain sent %+v, want one Batch of B's vote and A's ack", batch)
	}
	var vote msg.VoteMsg
	var ack msg.AckDecide
	for _, m := range batch.Msgs {
		switch m := m.(type) {
		case msg.VoteMsg:
			vote = m
		case msg.AckDecide:
			ack = m
		}
	}
	if vote.RID != b || vote.V != msg.VoteYes || ack.RID != a || ack.O != msg.OutcomeCommit {
		t.Fatalf("batch = %+v, want B's yes and A's commit ack", batch.Msgs)
	}
	if got := r.store.Syncs() - syncs; got != 1 {
		t.Fatalf("deciding drain paid %d device forces, want 1 for the commit and the released vote", got)
	}
}

// TestSnapReadNotHeldBehindForce: a drain that appends nothing is answered
// at once, so a snapshot read does not wait for a force in flight.
func TestSnapReadNotHeldBehindForce(t *testing.T) {
	r := startDB(t, time.Second, time.Minute)
	r.send(msg.Prepare{RID: rid(1, 1)}) // its force holds the device for a second
	time.Sleep(20 * time.Millisecond)
	r.send(msg.Exec{RID: rid(2, 1), CallID: 1, Op: msg.Op{Code: msg.OpSnapRead, Key: "k"}})
	if rep, ok := r.recv(t, 500*time.Millisecond).(msg.ExecReply); !ok || !rep.Rep.OK {
		t.Fatalf("snapshot read = %+v, want an answer while the force is in flight", rep)
	}
}

package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// scriptedDB is a database server reduced to a script: it answers every
// Exec at incarnation 1, records every Prepare and Decide it receives, and
// answers those only as onPrepare and onDecide say. n counts the messages of
// that kind received for the try so far, this one included.
type scriptedDB struct {
	self id.NodeID
	ep   transport.Endpoint

	onPrepare func(d *scriptedDB, m msg.Prepare, n int)
	onDecide  func(d *scriptedDB, m msg.Decide, n int)

	mu       sync.Mutex
	execs    int
	prepares map[id.ResultID][]time.Time
	decides  map[id.ResultID][]msg.Outcome
}

// appID is the one application server of the scripted tests.
var appID = id.AppServer(1)

func newScriptedDB(t *testing.T, net *transport.MemNetwork, i int,
	onPrepare func(*scriptedDB, msg.Prepare, int), onDecide func(*scriptedDB, msg.Decide, int)) *scriptedDB {
	t.Helper()
	d := &scriptedDB{
		self:      id.DBServer(i),
		ep:        attach(t, net, id.DBServer(i)),
		onPrepare: onPrepare,
		onDecide:  onDecide,
		prepares:  make(map[id.ResultID][]time.Time),
		decides:   make(map[id.ResultID][]msg.Outcome),
	}
	go func() {
		for env := range d.ep.Recv() {
			switch m := env.Payload.(type) {
			case msg.Exec:
				d.mu.Lock()
				d.execs++
				d.mu.Unlock()
				d.send(msg.ExecReply{RID: m.RID, CallID: m.CallID, Rep: msg.OpResult{OK: true}, Inc: 1})
			case msg.Prepare:
				d.mu.Lock()
				d.prepares[m.RID] = append(d.prepares[m.RID], time.Now())
				n := len(d.prepares[m.RID])
				d.mu.Unlock()
				if d.onPrepare != nil {
					d.onPrepare(d, m, n)
				}
			case msg.Decide:
				d.mu.Lock()
				d.decides[m.RID] = append(d.decides[m.RID], m.O)
				n := len(d.decides[m.RID])
				d.mu.Unlock()
				if d.onDecide != nil {
					d.onDecide(d, m, n)
				}
			}
		}
	}()
	return d
}

func (d *scriptedDB) send(p msg.Payload) { _ = d.ep.Send(msg.Envelope{To: appID, Payload: p}) }

func (d *scriptedDB) voteYes(rid id.ResultID) { d.send(msg.VoteMsg{RID: rid, V: msg.VoteYes, Inc: 1}) }

func (d *scriptedDB) ack(m msg.Decide) { d.send(msg.AckDecide{RID: m.RID, O: m.O}) }

// ready announces a restart, as a recovered server does.
func (d *scriptedDB) ready() { d.send(msg.Ready{Inc: 2}) }

// counts returns how many Prepares and Decides arrived for rid.
func (d *scriptedDB) counts(rid id.ResultID) (prepares, decides int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.prepares[rid]), len(d.decides[rid])
}

// preparedTries returns how many distinct tries sent a Prepare.
func (d *scriptedDB) preparedTries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.prepares)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// execCount returns how many Execs arrived, snapshot reads included.
func (d *scriptedDB) execCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.execs
}

// startRoundServer runs appID over the scripted databases dbs; its logic
// executes one Add on each of them.
func startRoundServer(t *testing.T, net *transport.MemNetwork, workers int, resend time.Duration, dbs ...*scriptedDB) *AppServer {
	t.Helper()
	logic := LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		for _, db := range dbs {
			if _, err := tx.Exec(ctx, db.self, msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1}); err != nil {
				return nil, err
			}
		}
		return []byte("ok"), nil
	})
	return startLogicServer(t, net, workers, resend, logic, dbs...)
}

// startLogicServer runs appID, with logic, over the scripted databases dbs.
func startLogicServer(t *testing.T, net *transport.MemNetwork, workers int, resend time.Duration, logic Logic, dbs ...*scriptedDB) *AppServer {
	t.Helper()
	var ids []id.NodeID
	for _, d := range dbs {
		ids = append(ids, d.self)
	}
	srv, err := NewAppServer(AppServerConfig{
		Self:           appID,
		AppServers:     []id.NodeID{appID},
		DataServers:    ids,
		Endpoint:       attach(t, net, appID),
		Workers:        workers,
		ResendInterval: resend,
		Logic:          logic,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv
}

// rawClient is a client endpoint that sends bare Requests, so the tests
// see exactly the tries they issue, with no retry or rebroadcast.
type rawClient struct{ ep transport.Endpoint }

func (c rawClient) issue(seq uint64) id.ResultID { return c.issueTry(seq, 1) }

func (c rawClient) issueTry(seq, try uint64) id.ResultID {
	rid := id.ResultID{Client: id.Client(1), Seq: seq, Try: try}
	_ = c.ep.Send(msg.Envelope{To: appID, Payload: msg.Request{RID: rid, Body: []byte("go")}})
	return rid
}

func (c rawClient) result(t *testing.T, rid id.ResultID) msg.Decision {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case env := <-c.ep.Recv():
			if res, ok := env.Payload.(msg.Result); ok && res.RID == rid {
				return res.Dec
			}
		case <-timeout:
			t.Fatalf("no result for %s", rid)
		}
	}
}

// TestNoGoroutinePerTry: a try waiting on votes holds no goroutine. With
// four workers and a database that never answers Prepare, a thousand tries
// all reach their voting round at once, and the server's goroutine count
// barely moves. A server whose workers block in prepare() sends four
// Prepares and no more.
func TestNoGoroutinePerTry(t *testing.T) {
	const tries = 1000
	net := testNet(t)
	db := newScriptedDB(t, net, 1, nil, nil)
	startRoundServer(t, net, 4, 0, db)
	cl := rawClient{attach(t, net, id.Client(1))}
	time.Sleep(50 * time.Millisecond) // let the server's own goroutines settle
	idle := runtime.NumGoroutine()

	for seq := uint64(1); seq <= tries; seq++ {
		cl.issue(seq)
	}
	deadline := time.Now().Add(20 * time.Second)
	for db.preparedTries() < tries {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tries sent a Prepare", db.preparedTries(), tries)
		}
		time.Sleep(time.Millisecond)
	}
	if grown := runtime.NumGoroutine() - idle; grown >= 20 {
		t.Fatalf("%d tries awaiting votes added %d goroutines, want < 20", tries, grown)
	}
}

// TestReadyInPlaceOfVoteAborts: a database that answers Prepare with Ready
// restarted and lost the branch, so the try aborts.
func TestReadyInPlaceOfVoteAborts(t *testing.T) {
	net := testNet(t)
	db := newScriptedDB(t, net, 1,
		func(d *scriptedDB, _ msg.Prepare, _ int) { d.ready() },
		func(d *scriptedDB, m msg.Decide, _ int) { d.ack(m) })
	startRoundServer(t, net, 1, time.Hour, db)
	cl := rawClient{attach(t, net, id.Client(1))}

	rid := cl.issue(1)
	if dec := cl.result(t, rid); dec.Outcome != msg.OutcomeAbort {
		t.Fatalf("outcome = %s, want abort", dec.Outcome)
	}
	db.mu.Lock()
	decides := db.decides[rid]
	db.mu.Unlock()
	if len(decides) != 1 || decides[0] != msg.OutcomeAbort {
		t.Fatalf("decides = %v, want one abort", decides)
	}
}

// TestReadyDuringTerminationResendsDecide: a database that announces a
// restart instead of acking may have lost the Decide, so it gets it again
// at once — long before the resend interval — and its ack delivers the
// result.
func TestReadyDuringTerminationResendsDecide(t *testing.T) {
	net := testNet(t)
	db := newScriptedDB(t, net, 1,
		func(d *scriptedDB, m msg.Prepare, _ int) { d.voteYes(m.RID) },
		func(d *scriptedDB, m msg.Decide, n int) {
			if n == 1 {
				d.ready()
				return
			}
			d.ack(m)
		})
	startRoundServer(t, net, 1, time.Hour, db)
	cl := rawClient{attach(t, net, id.Client(1))}

	rid := cl.issue(1)
	if dec := cl.result(t, rid); dec.Outcome != msg.OutcomeCommit {
		t.Fatalf("outcome = %s, want commit", dec.Outcome)
	}
	if p, d := db.counts(rid); p != 1 || d != 2 {
		t.Fatalf("prepares = %d, decides = %d; want 1 and 2", p, d)
	}
}

// TestDroppedPrepareResentAfterInterval: a lost Prepare is sent again once
// the round has heard nothing for a full resend interval, not before, and
// only once when the second one is answered.
func TestDroppedPrepareResentAfterInterval(t *testing.T) {
	const interval = 100 * time.Millisecond
	net := testNet(t)
	db := newScriptedDB(t, net, 1,
		func(d *scriptedDB, m msg.Prepare, n int) {
			if n > 1 {
				d.voteYes(m.RID)
			}
		},
		func(d *scriptedDB, m msg.Decide, _ int) { d.ack(m) })
	startRoundServer(t, net, 1, interval, db)
	cl := rawClient{attach(t, net, id.Client(1))}

	issued := time.Now() // the round opens, and its resend clock starts, after this
	rid := cl.issue(1)
	if dec := cl.result(t, rid); dec.Outcome != msg.OutcomeCommit {
		t.Fatalf("outcome = %s, want commit", dec.Outcome)
	}
	time.Sleep(3 * interval)
	db.mu.Lock()
	at := db.prepares[rid]
	decides := len(db.decides[rid])
	db.mu.Unlock()
	if len(at) != 2 || decides != 1 {
		t.Fatalf("prepares = %d, decides = %d; want 2 and 1", len(at), decides)
	}
	if gap := at[1].Sub(issued); gap < interval {
		t.Fatalf("Prepare re-sent %v after the request, before the %v interval", gap, interval)
	}
}

// TestFailureFreeRoundSendsOnce: a try whose participants answer at once
// sends each Prepare and each Decide exactly once.
func TestFailureFreeRoundSendsOnce(t *testing.T) {
	const interval = 500 * time.Millisecond
	net := testNet(t)
	answer := func(d *scriptedDB, m msg.Prepare, _ int) { d.voteYes(m.RID) }
	ack := func(d *scriptedDB, m msg.Decide, _ int) { d.ack(m) }
	dbs := []*scriptedDB{newScriptedDB(t, net, 1, answer, ack), newScriptedDB(t, net, 2, answer, ack)}
	startRoundServer(t, net, 4, interval, dbs...)
	cl := rawClient{attach(t, net, id.Client(1))}

	var rids []id.ResultID
	for seq := uint64(1); seq <= 20; seq++ {
		rids = append(rids, cl.issue(seq))
	}
	got := map[id.ResultID]bool{}
	timeout := time.After(10 * time.Second)
	for len(got) < len(rids) {
		select {
		case env := <-cl.ep.Recv():
			if res, ok := env.Payload.(msg.Result); ok {
				if res.Dec.Outcome != msg.OutcomeCommit {
					t.Fatalf("%s: outcome %s", res.RID, res.Dec.Outcome)
				}
				got[res.RID] = true
			}
		case <-timeout:
			t.Fatalf("%d of %d results", len(got), len(rids))
		}
	}
	time.Sleep(2 * interval) // a spurious resend would land by now
	for _, d := range dbs {
		for _, rid := range rids {
			if p, dc := d.counts(rid); p != 1 || dc != 1 {
				t.Errorf("%s at %s: prepares = %d, decides = %d; want 1 each", rid, d.self, p, dc)
			}
		}
	}
}

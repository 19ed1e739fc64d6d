package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/xadb"
)

// TestClientSlowTryDiagnostics: a try that burns half its deadline with no
// decision fires the SlowTry hook exactly once per try, roughly at the
// halfway point, with the stalled try's identity.
func TestClientSlowTryDiagnostics(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	// No server is attached: the request stalls forever.
	var fired atomic.Int32
	var gotRID atomic.Value
	cl, err := NewClient(ClientConfig{
		Self:       id.Client(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Endpoint:   ep,
		Backoff:    10 * time.Millisecond,
		SlowTry: func(rid id.ResultID, waited time.Duration) {
			fired.Add(1)
			gotRID.Store(rid)
			if waited < 100*time.Millisecond {
				t.Errorf("SlowTry fired after only %v", waited)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("stall")); err == nil {
		t.Fatal("Issue succeeded with no server attached")
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("SlowTry fired %d times in %v, want 1", got, time.Since(start))
	}
	rid, _ := gotRID.Load().(id.ResultID)
	if rid.Client != id.Client(1) || rid.Seq != 1 || rid.Try != 1 {
		t.Errorf("SlowTry rid = %v", rid)
	}
}

// TestClientSlowTryFiresOnRetryLivelock: a hang made of many quick aborted
// tries (no single try ever waits long) must still fire the diagnostics at
// half the request's budget — the soak-test stall can take either shape.
func TestClientSlowTryFiresOnRetryLivelock(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	// A server that aborts every try immediately.
	srvEP := attach(t, net, id.AppServer(1))
	go func() {
		for env := range srvEP.Recv() {
			req, ok := env.Payload.(msg.Request)
			if !ok {
				continue
			}
			srvEP.Send(msg.Envelope{To: env.From, Payload: msg.Result{
				RID: req.RID, Dec: msg.Decision{Outcome: msg.OutcomeAbort}}})
		}
	}()
	var fired atomic.Int32
	cl, err := NewClient(ClientConfig{
		Self:       id.Client(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Endpoint:   ep,
		Backoff:    5 * time.Millisecond,
		SlowTry:    func(id.ResultID, time.Duration) { fired.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("livelock")); err == nil {
		t.Fatal("Issue succeeded against an always-abort server")
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("SlowTry fired %d times across the aborted tries, want 1", got)
	}
}

// TestClientSlowTrySilentOnFastPath: a request that commits promptly never
// triggers the diagnostics.
func TestClientSlowTrySilentOnFastPath(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	echoServer(t, net, id.AppServer(1))
	var fired atomic.Int32
	cl, err := NewClient(ClientConfig{
		Self:       id.Client(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Endpoint:   ep,
		SlowTry:    func(id.ResultID, time.Duration) { fired.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("quick")); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 0 {
		t.Errorf("SlowTry fired %d times on the fast path", got)
	}
}

// TestAppServerDebugTry: the liveness dump names the register, queue and
// suspicion state a stalled try's investigation needs.
func TestAppServerDebugTry(t *testing.T) {
	net := testNet(t)
	engine, err := xadb.Open(stablestore.New(0), xadb.Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDataServer(DataServerConfig{
		Self:       id.DBServer(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Engine:     engine,
		Endpoint:   attach(t, net, id.DBServer(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Start()
	defer db.Stop()
	srv, err := NewAppServer(AppServerConfig{
		Self:        id.AppServer(1),
		AppServers:  []id.NodeID{id.AppServer(1)},
		DataServers: []id.NodeID{id.DBServer(1)},
		Endpoint:    attach(t, net, id.AppServer(1)),
		// "add" opens a branch with one Exec; anything else is a no-op.
		Logic: LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
			if string(req) == "add" {
				if _, err := tx.Exec(ctx, id.DBServer(1), msg.Op{Code: msg.OpAdd, Key: "k", Delta: 1}); err != nil {
					return nil, err
				}
			}
			return []byte("ok"), nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	if s := srv.DebugTry(rid); s == "" {
		t.Fatal("empty DebugTry for an unknown try")
	}
	// Drive a no-op request through: it opened no branch, so it wrote
	// neither register and left no commit-cache entry. Then a request with
	// one Exec: the dump must show its claim and its decided regD.
	cl, err := NewClient(ClientConfig{
		Self:       id.Client(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Endpoint:   attach(t, net, id.Client(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("noop")); err != nil {
		t.Fatal(err)
	}
	mustDebug(t, srv, rid, "regA=unset", "regD=unset", "cached=false", "round=none")
	if _, err := cl.Issue(ctx, []byte("add")); err != nil {
		t.Fatal(err)
	}
	rid = id.ResultID{Client: id.Client(1), Seq: 2, Try: 1}
	mustDebug(t, srv, rid, "regA="+id.AppServer(1).String(), "regD="+msg.OutcomeCommit.String(), "round=none")

	// A try held in its rounds shows the phase and who answered so far:
	// dbserver-2 keeps the vote, then the ack, to itself.
	net = testNet(t)
	db1 := newScriptedDB(t, net, 1,
		func(d *scriptedDB, m msg.Prepare, _ int) { d.voteYes(m.RID) },
		func(d *scriptedDB, m msg.Decide, _ int) { d.ack(m) })
	db2 := newScriptedDB(t, net, 2, nil, nil)
	srv = startRoundServer(t, net, 1, time.Hour, db1, db2)
	raw := rawClient{attach(t, net, id.Client(1))}
	both := []id.NodeID{db1.self, db2.self}
	rid = raw.issue(1)
	want := fmt.Sprintf("round=voting(heard=%v of %v)", []id.NodeID{db1.self}, both)
	waitFor(t, want, 5*time.Second, func() bool { return strings.Contains(srv.DebugTry(rid), want) })
	db2.voteYes(rid)
	want = fmt.Sprintf("round=terminating(heard=%v of %v)", []id.NodeID{db1.self}, both)
	waitFor(t, want, 5*time.Second, func() bool { return strings.Contains(srv.DebugTry(rid), want) })
}

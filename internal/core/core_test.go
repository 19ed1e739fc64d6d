package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/xadb"
)

func testNet(t *testing.T) *transport.MemNetwork {
	t.Helper()
	net := transport.NewMemNetwork(transport.Options{})
	t.Cleanup(net.Close)
	return net
}

func attach(t *testing.T, net *transport.MemNetwork, n id.NodeID) transport.Endpoint {
	t.Helper()
	ep, err := net.Attach(n)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func noopLogic() Logic {
	return LogicFunc(func(ctx context.Context, tx *Tx, req []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
}

func TestAppServerConfigValidation(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.AppServer(1))
	apps := []id.NodeID{id.AppServer(1)}
	dbs := []id.NodeID{id.DBServer(1)}
	cases := []struct {
		name string
		cfg  AppServerConfig
	}{
		{"no endpoint", AppServerConfig{Self: id.AppServer(1), AppServers: apps, DataServers: dbs, Logic: noopLogic()}},
		{"no logic", AppServerConfig{Self: id.AppServer(1), AppServers: apps, DataServers: dbs, Endpoint: ep}},
		{"no app servers", AppServerConfig{Self: id.AppServer(1), DataServers: dbs, Endpoint: ep, Logic: noopLogic()}},
		{"no db servers", AppServerConfig{Self: id.AppServer(1), AppServers: apps, Endpoint: ep, Logic: noopLogic()}},
		{"log that does not arbitrate, two servers", AppServerConfig{Self: id.AppServer(1),
			AppServers: []id.NodeID{id.AppServer(1), id.AppServer(2)}, DataServers: dbs, Endpoint: ep, Logic: noopLogic(), Log: NoLog}},
	}
	for _, tc := range cases {
		if _, err := NewAppServer(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	srv, err := NewAppServer(AppServerConfig{
		Self: id.AppServer(1), AppServers: apps, DataServers: dbs, Endpoint: ep, Logic: noopLogic(),
	})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	srv.Start()
	srv.Stop()
}

func TestDataServerConfigValidation(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.DBServer(1))
	engine, err := xadb.Open(stablestore.New(0), xadb.Config{Self: id.DBServer(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDataServer(DataServerConfig{Self: id.DBServer(1), Endpoint: ep}); err == nil {
		t.Error("missing engine accepted")
	}
	if _, err := NewDataServer(DataServerConfig{Self: id.DBServer(1), Engine: engine}); err == nil {
		t.Error("missing endpoint accepted")
	}
	srv, err := NewDataServer(DataServerConfig{Self: id.DBServer(1), Engine: engine, Endpoint: ep})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Stop()
}

func TestClientConfigValidation(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	if _, err := NewClient(ClientConfig{Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}}); err == nil {
		t.Error("missing endpoint accepted")
	}
	if _, err := NewClient(ClientConfig{Self: id.Client(1), Endpoint: ep}); err == nil {
		t.Error("missing app servers accepted")
	}
}

// echoServer answers every request with a committed copy of its body.
func echoServer(t *testing.T, net *transport.MemNetwork, n id.NodeID) {
	t.Helper()
	ep := attach(t, net, n)
	go func() {
		for env := range ep.Recv() {
			req, ok := env.Payload.(msg.Request)
			if !ok {
				continue
			}
			ep.Send(msg.Envelope{To: env.From, Payload: msg.Result{
				RID: req.RID, Dec: msg.Decision{Result: req.Body, Outcome: msg.OutcomeCommit}}})
		}
	}()
}

func TestClientPipelinesConcurrentIssues(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	echoServer(t, net, id.AppServer(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: ep,
		Backoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const n = 32
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(fmt.Sprintf("request-%d", i))
			res, err := cl.Issue(ctx, body)
			if err != nil {
				t.Errorf("issue %d: %v", i, err)
				return
			}
			if string(res) != string(body) {
				t.Errorf("issue %d got %q", i, res)
			}
		}()
	}
	wg.Wait()
	ds := cl.Delivered()
	if len(ds) != n {
		t.Fatalf("delivered %d results, want %d", len(ds), n)
	}
	seqs := make(map[uint64]bool)
	for _, d := range ds {
		if seqs[d.RID.Seq] {
			t.Fatalf("sequence %d delivered twice", d.RID.Seq)
		}
		seqs[d.RID.Seq] = true
	}
}

func TestClientIssueAsyncCancelReleasesSlot(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: ep,
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	f, err := cl.IssueAsync(ctx, []byte("r")) // nobody answers; it just retries
	if err != nil {
		t.Fatal(err)
	}
	if n := cl.InFlight(); n != 1 {
		t.Fatalf("InFlight = %d, want 1", n)
	}
	cancel()
	if _, err := f.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled future: %v, want context.Canceled", err)
	}
	if n := cl.InFlight(); n != 0 {
		t.Fatalf("InFlight after cancel = %d, want 0 (slot leaked)", n)
	}
}

func TestClientMaxInFlightAppliesBackpressure(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: ep,
		Backoff: 10 * time.Millisecond, MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := cl.IssueAsync(ctx, []byte("first")); err != nil { // never answered
		t.Fatal(err)
	}
	short, cancel2 := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel2()
	if _, err := cl.IssueAsync(short, []byte("second")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-cap issue: %v, want deadline exceeded while blocked on the cap", err)
	}
}

func TestClientStopsOnContextCancel(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.Client(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: ep,
		Backoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Issue(ctx, []byte("r")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("issue on dead deployment: %v, want deadline exceeded", err)
	}
}

func TestClientIgnoresStaleAndForeignResults(t *testing.T) {
	net := testNet(t)
	clEP := attach(t, net, id.Client(1))
	appEP := attach(t, net, id.AppServer(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: clEP,
		Backoff: time.Hour, // no broadcasts: only the direct conversation
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// The fake app server answers the first request with a stale try, a
	// foreign request's result, then the real answer.
	go func() {
		for env := range appEP.Recv() {
			req, ok := env.Payload.(msg.Request)
			if !ok {
				continue
			}
			stale := req.RID
			stale.Try += 7
			appEP.Send(msg.Envelope{To: env.From, Payload: msg.Result{
				RID: stale, Dec: msg.Decision{Result: []byte("stale"), Outcome: msg.OutcomeCommit}}})
			foreign := req.RID
			foreign.Seq += 99
			appEP.Send(msg.Envelope{To: env.From, Payload: msg.Result{
				RID: foreign, Dec: msg.Decision{Result: []byte("foreign"), Outcome: msg.OutcomeCommit}}})
			appEP.Send(msg.Envelope{To: env.From, Payload: msg.Result{
				RID: req.RID, Dec: msg.Decision{Result: []byte("real"), Outcome: msg.OutcomeCommit}}})
			return
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.Issue(ctx, []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "real" {
		t.Fatalf("client accepted %q", res)
	}
	deliveries := cl.Delivered()
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %v", deliveries)
	}
}

func TestClientStepsTriesOnAbort(t *testing.T) {
	net := testNet(t)
	clEP := attach(t, net, id.Client(1))
	appEP := attach(t, net, id.AppServer(1))
	cl, err := NewClient(ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{id.AppServer(1)}, Endpoint: clEP,
		Backoff: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	go func() {
		for env := range appEP.Recv() {
			req, ok := env.Payload.(msg.Request)
			if !ok {
				continue
			}
			dec := msg.Decision{Outcome: msg.OutcomeAbort}
			if req.RID.Try >= 3 {
				dec = msg.Decision{Result: []byte("third time lucky"), Outcome: msg.OutcomeCommit}
			}
			appEP.Send(msg.Envelope{To: env.From, Payload: msg.Result{RID: req.RID, Dec: dec}})
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := cl.Issue(ctx, []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "third time lucky" {
		t.Fatalf("res = %q", res)
	}
	ds := cl.Delivered()
	if len(ds) != 1 || ds[0].Tries != 3 {
		t.Fatalf("deliveries = %+v, want try 3", ds)
	}
}

func TestHooksNilSafety(t *testing.T) {
	var h *Hooks
	h.span(id.ResultID{}, SpanSQL, time.Second) // must not panic
	h.crash(PointAfterRegA, id.ResultID{})
	h2 := &Hooks{}
	h2.span(id.ResultID{}, SpanSQL, time.Second)
	h2.crash(PointAfterRegA, id.ResultID{})
}

func TestAppServerRetireDropsState(t *testing.T) {
	net := testNet(t)
	ep := attach(t, net, id.AppServer(1))
	srv, err := NewAppServer(AppServerConfig{
		Self:        id.AppServer(1),
		AppServers:  []id.NodeID{id.AppServer(1)},
		DataServers: []id.NodeID{id.DBServer(1)},
		Endpoint:    ep,
		Logic:       noopLogic(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	// Single-replica consensus decides instantly: write both registers.
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	ctx := context.Background()
	if _, err := srv.Registers().WriteA(ctx, rid, id.AppServer(1)); err != nil {
		t.Fatal(err)
	}
	if len(srv.Registers().KnownTries()) != 1 {
		t.Fatal("register write not visible")
	}
	srv.Retire(rid.Request(), rid.Try)
	if len(srv.Registers().KnownTries()) != 0 {
		t.Fatal("Retire left register state behind")
	}
}

// TestDecisionCachesAreBounded: the committed-decision cache and the
// cleaning thread's dedup set must not grow without bound — the oldest
// entries are evicted past the cap, and Retire prunes both eagerly.
func TestDecisionCachesAreBounded(t *testing.T) {
	const cap = 8
	net := testNet(t)
	ep := attach(t, net, id.AppServer(1))
	srv, err := NewAppServer(AppServerConfig{
		Self:            id.AppServer(1),
		AppServers:      []id.NodeID{id.AppServer(1)},
		DataServers:     []id.NodeID{id.DBServer(1)},
		Endpoint:        ep,
		Logic:           noopLogic(),
		CommitCacheSize: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5*cap; seq++ {
		rid := id.ResultID{Client: id.Client(1), Seq: seq, Try: 1}
		srv.cacheCommit(rid, msg.Decision{Outcome: msg.OutcomeCommit})
		srv.markCleaned(rid)
	}
	srv.mu.Lock()
	nCommitted := len(srv.committed)
	srv.mu.Unlock()
	if nCommitted > cap {
		t.Errorf("committed cache holds %d entries, cap is %d", nCommitted, cap)
	}
	srv.mu.Lock()
	nCleaned := len(srv.cleaned)
	srv.mu.Unlock()
	if nCleaned > cap {
		t.Errorf("cleaned set holds %d entries, cap is %d", nCleaned, cap)
	}

	// The newest entry survived FIFO eviction and Retire prunes it.
	last := id.ResultID{Client: id.Client(1), Seq: 5 * cap, Try: 1}
	srv.mu.Lock()
	_, cached := srv.committed[last.Request()]
	srv.mu.Unlock()
	if !cached {
		t.Fatal("newest decision evicted before older ones")
	}
	if !srv.wasCleaned(last) {
		t.Fatal("newest cleaned entry evicted before older ones")
	}
	srv.Retire(last.Request(), last.Try)
	srv.mu.Lock()
	_, cached = srv.committed[last.Request()]
	srv.mu.Unlock()
	if cached {
		t.Error("Retire left the committed decision behind")
	}
	if srv.wasCleaned(last) {
		t.Error("Retire left the cleaned entry behind")
	}
}

// TestIssueRunsOnCallerGoroutine: a blocked Issue holds only its caller's
// goroutine. N callers waiting on a silent application server add at most
// N+5 goroutines; a goroutine per request on top would add about 2N.
func TestIssueRunsOnCallerGoroutine(t *testing.T) {
	const callers = 200
	net := testNet(t)
	attach(t, net, id.AppServer(1)) // attached, never answers
	cl, err := NewClient(ClientConfig{
		Self:       id.Client(1),
		AppServers: []id.NodeID{id.AppServer(1)},
		Endpoint:   attach(t, net, id.Client(1)),
		Backoff:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	time.Sleep(20 * time.Millisecond) // let the client's own goroutines settle
	idle := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Issue(ctx, []byte("go"))
		}()
	}
	waitFor(t, "every caller in flight", 5*time.Second, func() bool { return cl.InFlight() == callers })
	grown := runtime.NumGoroutine() - idle
	cancel()
	wg.Wait()
	if grown > callers+5 {
		t.Fatalf("%d blocked Issue callers added %d goroutines, want <= %d", callers, grown, callers+5)
	}
}

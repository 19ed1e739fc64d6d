package etx_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"etx"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/rchan"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/transport/tcptransport"
)

// TestClientPipelinesUnderAppServerCrash drives 16 goroutines through ONE
// client handle while the primary application server crashes mid-run: every
// request must commit exactly once (counter arithmetic + the oracle).
func TestClientPipelinesUnderAppServerCrash(t *testing.T) {
	const goroutines = 16
	c := newCluster(t, etx.Config{
		Seed:   map[string]int64{"counter": 0},
		Tuning: etx.Tuning{Workers: 8},
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			if err := tx.SimulateWork(ctx, 0, 10*time.Millisecond); err != nil {
				return nil, err
			}
			n, err := tx.Add(ctx, 0, "counter", 1)
			if err != nil {
				return nil, err
			}
			return []byte(fmt.Sprintf("%d", n)), nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cl := c.Client(1)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.Issue(ctx, []byte("inc"))
			if err != nil {
				t.Errorf("issue: %v", err)
				return
			}
			if _, err := strconv.Atoi(string(res)); err != nil {
				t.Errorf("malformed result %q", res)
			}
		}()
	}
	// Land the crash while the pipelined burst is in flight.
	time.Sleep(25 * time.Millisecond)
	c.CrashAppServer(1)
	wg.Wait()

	if n, _ := c.ReadInt(1, "counter"); n != goroutines {
		t.Errorf("counter = %d, want %d (each pipelined request exactly once)", n, goroutines)
	}
	if cl.InFlight() != 0 {
		t.Errorf("InFlight = %d after all requests resolved", cl.InFlight())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIssueAsyncCancelReleasesSlot is the regression test for the in-flight
// map: cancelling a pending future must free its slot.
func TestIssueAsyncCancelReleasesSlot(t *testing.T) {
	c := newCluster(t, etx.Config{
		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	// With the whole middle tier down nothing ever answers, so the request
	// stays pending until its context is cancelled.
	for i := 1; i <= 3; i++ {
		c.CrashAppServer(i)
	}
	cl := c.Client(1)
	ctx, cancel := context.WithCancel(context.Background())
	f, err := cl.IssueAsync(ctx, []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if n := cl.InFlight(); n != 1 {
		t.Fatalf("InFlight = %d, want 1", n)
	}
	cancel()
	if _, err := f.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled future resolved with %v, want context.Canceled", err)
	}
	if n := cl.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after cancel, want 0 (slot leaked)", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDialConcurrentOverTCP runs the full stack over real loopback TCP — the
// cmd/ binaries' wiring — but connects the client through the public
// etx.Dial API and pipelines 16 concurrent requests through it.
func TestDialConcurrentOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}
	const pipelined = 16

	appIDs := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	dbID := id.DBServer(1)
	eps, err := tcptransport.ListenLoopback(tcptransport.Config{}, append(append([]id.NodeID{}, appIDs...), dbID)...)
	if err != nil {
		t.Fatal(err)
	}
	reliable := func(n id.NodeID) transport.Endpoint {
		ep := rchan.Wrap(eps[n], 50*time.Millisecond)
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	tuning := deploy.Tuning{SuspectTimeout: 300 * time.Millisecond, Workers: pipelined}

	store, err := stablestore.OpenFile(filepath.Join(t.TempDir(), "db.journal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.CloseFile() })
	db, err := deploy.StartDataNode(deploy.DataNodeConfig{
		Self: dbID, AppServers: appIDs, Endpoint: reliable(dbID),
		Store: store, Tuning: tuning,
		Seed: []kv.Write{{Key: "counter", Val: kv.EncodeInt(0)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Stop)

	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		rep, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpAdd, Key: "counter", Delta: 1})
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", rep.Num)), nil
	})
	for _, appID := range appIDs {
		srv, err := deploy.StartAppNode(core.AppServerConfig{
			Self: appID, AppServers: appIDs, DataServers: []id.NodeID{dbID},
			Endpoint: reliable(appID), Logic: logic,
		}, tuning)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
	}

	// Connect through the public API, then teach the servers the client's
	// bound address (the cmd/ deployments do this with the -clients flag).
	book := make(map[id.NodeID]string)
	for n, ep := range eps {
		book[n] = ep.Addr()
	}
	appBook := ""
	for i, appID := range appIDs {
		if i > 0 {
			appBook += ","
		}
		appBook += fmt.Sprintf("%d=%s", appID.Index, book[appID])
	}
	cl, err := etx.Dial(etx.DialConfig{
		Listen:     "127.0.0.1:0",
		AppServers: appBook,
		Backoff:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	book[id.Client(1)] = cl.Addr()
	for _, ep := range eps {
		ep.SetPeers(book)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	batch := make([][]byte, pipelined)
	for i := range batch {
		batch[i] = []byte("inc")
	}
	results, err := cl.IssueBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if _, err := strconv.Atoi(string(r)); err != nil {
			t.Errorf("result %d malformed: %q", i, r)
		}
	}
	if n, _ := db.Engine.Store().GetInt("counter"); n != pipelined {
		t.Fatalf("counter = %d, want %d (each pipelined TCP request exactly once)", n, pipelined)
	}
}

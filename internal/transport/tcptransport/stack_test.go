package tcptransport_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/rchan"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/transport/tcptransport"
	"etx/internal/xadb"
)

// startStack stands up the deployment the end-to-end tests run — three
// application servers, one database server over store, one client, each on
// its own loopback TCP endpoint under reliable channels — through
// internal/deploy, the wiring the cmd/ binaries use. It returns the client
// and the database engine; everything is torn down with the test.
func startStack(t *testing.T, wire tcptransport.Config, store *stablestore.Store, tuning deploy.Tuning, seed []kv.Write, logic core.Logic) (*core.Client, *xadb.Engine) {
	t.Helper()
	appIDs := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	dbID, clID := id.DBServer(1), id.Client(1)
	eps, err := tcptransport.ListenLoopback(wire, append(append([]id.NodeID{}, appIDs...), dbID, clID)...)
	if err != nil {
		t.Fatal(err)
	}
	reliable := func(n id.NodeID) transport.Endpoint {
		ep := rchan.Wrap(eps[n], 50*time.Millisecond)
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	tuning.SuspectTimeout = 300 * time.Millisecond

	db, err := deploy.StartDataNode(deploy.DataNodeConfig{
		Self: dbID, AppServers: appIDs, Endpoint: reliable(dbID),
		Store: store, Tuning: tuning, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Stop)
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
	cl, err := core.NewClient(core.ClientConfig{
		Self: clID, AppServers: appIDs, Endpoint: reliable(clID),
		Backoff: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl, db.Engine
}

// journal opens a real journal file as the database's stable storage.
func journal(t *testing.T, forceLatency time.Duration) *stablestore.Store {
	t.Helper()
	store, err := stablestore.OpenFile(filepath.Join(t.TempDir(), "db.journal"), forceLatency)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.CloseFile() })
	return store
}

// accountSeed is n accounts acct/a00.. of 100 each.
func accountSeed(n int) []kv.Write {
	seed := make([]kv.Write, n)
	for i := range seed {
		seed[i] = kv.Write{Key: fmt.Sprintf("acct/a%02d", i), Val: kv.EncodeInt(100)}
	}
	return seed
}

// withdrawOne takes 1 from the account the request names and returns the
// new balance.
var withdrawOne = core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
	rep, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpAdd, Key: string(req), Delta: -1})
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%d", rep.Num)), nil
})

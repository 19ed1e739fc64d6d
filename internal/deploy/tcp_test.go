package deploy

import (
	"context"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/placement"
	"etx/internal/rchan"
	"etx/internal/repl"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/transport/tcptransport"
)

// TestReplicatedDeploymentOverTCPSurvivesPrimaryLoss builds what the binaries
// build — etxdbserver as boot primary, etxdbserver -backup, three
// etxappserver -replicas 2, journals on disk, loopback TCP under reliable
// channels — through this package alone, pipelines withdrawals through it and
// closes the primary's endpoint mid-run: the backup must promote itself, serve
// at epoch 2, and continue the balance chain without a gap or a repeat.
func TestReplicatedDeploymentOverTCPSurvivesPrimaryLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP end-to-end test skipped in -short mode")
	}
	const (
		initial  = 1000
		requests = 120
		inflight = 8
		killAt   = 40 // withdrawals delivered before the primary goes silent
	)
	tuning := Tuning{
		ReplicaFactor:  2,
		Workers:        inflight,
		SuspectTimeout: 200 * time.Millisecond,
	}
	appIDs := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	group := Groups(1, tuning.ReplicaFactor)[0]
	primary, backup, clID := group[0], group[1], id.Client(1)

	eps, err := tcptransport.ListenLoopback(tcptransport.Config{}, append(append([]id.NodeID{}, appIDs...), primary, backup, clID)...)
	if err != nil {
		t.Fatal(err)
	}
	reliable := func(n id.NodeID) transport.Endpoint {
		ep := rchan.Wrap(eps[n], 50*time.Millisecond)
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	journal := func(name string) *stablestore.Store {
		st, err := stablestore.OpenFile(filepath.Join(t.TempDir(), name), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.CloseFile() })
		return st
	}

	// The backup first, as an operator would start it: the seed then streams
	// into a live applier.
	promoted := make(chan *DataNode, 1)
	applier := StartBackup(BackupConfig{
		BackupConfig: repl.BackupConfig{
			Self: backup, Shard: 0, Group: group, AppServers: appIDs,
			Endpoint: reliable(backup), Store: journal("db2.journal"),
		},
		Tuning:  tuning,
		Publish: func(n *DataNode) { promoted <- n },
	})
	t.Cleanup(applier.Stop)

	boot, err := StartDataNode(DataNodeConfig{
		Self: primary, AppServers: appIDs, Group: group,
		Endpoint: reliable(primary), Store: journal("db1.journal"), Tuning: tuning,
		Seed: []kv.Write{{Key: "acct/alice", Val: kv.EncodeInt(initial)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(boot.Stop)
	if boot.Streamer == nil {
		t.Fatal("a primary with a group peer must stream its log")
	}

	withdraw := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		bal, err := tx.Add(ctx, "acct/alice", -1)
		if err != nil {
			return nil, err
		}
		return []byte(strconv.FormatInt(bal, 10)), nil
	})
	views := make([]*placement.View, len(appIDs))
	for i, appID := range appIDs {
		// One view per server, as in one process per server: they converge
		// through the NewPrimary announcement alone.
		views[i], err = placement.NewView([][]id.NodeID{group})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := StartAppNode(core.AppServerConfig{
			Self: appID, AppServers: appIDs, DataServers: group, View: views[i],
			Endpoint: reliable(appID), Logic: withdraw,
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

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		mu       sync.Mutex
		balances []int
		kill     sync.Once
		wg       sync.WaitGroup
	)
	next := make(chan struct{}, requests)
	for i := 0; i < requests; i++ {
		next <- struct{}{}
	}
	close(next)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				res, err := cl.Issue(ctx, []byte("withdraw"))
				if err != nil {
					t.Errorf("issue: %v", err)
					return
				}
				bal, err := strconv.Atoi(string(res))
				if err != nil {
					t.Errorf("malformed result %q", res)
					return
				}
				mu.Lock()
				balances = append(balances, bal)
				n := len(balances)
				mu.Unlock()
				if n >= killAt {
					// kill -9 of the primary, as seen from the network.
					kill.Do(func() { eps[primary].Close() })
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var node *DataNode
	select {
	case node = <-promoted:
		t.Cleanup(node.Stop)
	default:
		t.Fatal("every request was delivered but the backup never took the shard over")
	}
	if !applier.Promoted() {
		t.Error("backup does not report its promotion")
	}
	// Exactly once across the promotion: the results are the chain
	// initial-1 … initial-requests, each balance once.
	sort.Sort(sort.Reverse(sort.IntSlice(balances)))
	for i, bal := range balances {
		if want := initial - 1 - i; bal != want {
			t.Fatalf("balance chain broken at position %d: got %d, want %d (%s)", i, bal, want,
				"a repeat is a double withdrawal, a gap a lost one")
		}
	}
	if got, _ := node.Engine.Store().GetInt("acct/alice"); got != initial-requests {
		t.Errorf("promoted primary holds %d, want %d", got, initial-requests)
	}
	if node.Streamer == nil {
		t.Error("the promoted primary must stream to the rest of its group")
	}
	// The announcement reaches every application server, the idle ones too.
	deadline := time.Now().Add(5 * time.Second)
	for i, v := range views {
		cur, epoch := v.Primary(0)
		for (cur != backup || epoch != 2) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			cur, epoch = v.Primary(0)
		}
		if cur != backup || epoch != 2 {
			t.Errorf("app server %d routes shard 0 to %s at epoch %d, want %s at epoch 2", i+1, cur, epoch, backup)
		}
	}
}

package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
)

// replDetectors builds a per-node scripted-detector registry for the data
// tier, so tests trigger promotions deterministically instead of waiting for
// heartbeat timeouts.
type replDetectors struct {
	mu   sync.Mutex
	dets map[id.NodeID]*fd.Scripted
}

func newReplDetectors() *replDetectors {
	return &replDetectors{dets: make(map[id.NodeID]*fd.Scripted)}
}

func (r *replDetectors) factory() func(self id.NodeID) fd.Detector {
	return func(self id.NodeID) fd.Detector {
		r.mu.Lock()
		defer r.mu.Unlock()
		if d, ok := r.dets[self]; ok {
			return d
		}
		d := fd.NewScripted()
		r.dets[self] = d
		return d
	}
}

// suspectEverywhere makes every data-tier detector suspect node.
func (r *replDetectors) suspectEverywhere(node id.NodeID, suspected bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.dets {
		d.Set(node, suspected)
	}
}

// waitPromotions blocks until the cluster reports at least n completed
// promotions.
func waitPromotions(t *testing.T, c *Cluster, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got, _ := c.Promotions(); got >= n {
			return
		}
		if time.Now().After(deadline) {
			got, _ := c.Promotions()
			t.Fatalf("promotions = %d, want >= %d", got, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicaFactorOneIsUnchanged pins the off switch: ReplicaFactor 1 (or
// unset) instantiates none of the replication machinery and behaves exactly
// like the pre-replication deployment.
func TestReplicaFactorOneIsUnchanged(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100), Tuning: deploy.Tuning{ReplicaFactor: 1}}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.View() != nil {
		t.Fatal("ReplicaFactor 1 must not build a replica view")
	}
	if c.Streamer(1) != nil {
		t.Fatal("ReplicaFactor 1 must not build a streamer")
	}
	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 90, 10)
	mustOracle(t, c)
	if n := c.StaleRejects(); n != 0 {
		t.Fatalf("stale rejects = %d on an unreplicated deployment", n)
	}
}

// TestBackupsApplyStream: on a replicated shard, committed effects appear in
// every live backup's write-ahead log (via the stream), so the group's
// storage converges without the backups taking any part in 2PC.
func TestBackupsApplyStream(t *testing.T) {
	dets := newReplDetectors()
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(100),
		Tuning:     deploy.Tuning{ReplicaFactor: 3},
		DBDetector: dets.factory(),
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	issue(t, c, 1, "10")
	issue(t, c, 1, "5")
	mustBalances(t, c, 1, 85, 15)

	// The primary streamed everything; wait until both backups drained it.
	st := c.Streamer(1)
	if st == nil {
		t.Fatal("primary has no streamer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Lag() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream lag stuck at %d", st.Lag())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, i := range []int{2, 3} {
		b := c.Backup(i)
		if b == nil {
			t.Fatalf("db-%d is not running as a backup", i)
		}
		if _, seq := b.Applied(); seq != st.Seq() {
			t.Fatalf("backup db-%d applied through %d, stream at %d", i, seq, st.Seq())
		}
	}
	mustOracle(t, c)
}

// TestKillPrimaryPromotesBackup is the tentpole scenario in miniature: the
// shard's primary is crashed, the deterministic successor replays its log
// tail and takes over, the application tier re-routes by epoch, and
// committed state survives byte-exact — conservation holds on the promoted
// node.
func TestKillPrimaryPromotesBackup(t *testing.T) {
	dets := newReplDetectors()
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(100),
		Tuning:     deploy.Tuning{ReplicaFactor: 3},
		DBDetector: dets.factory(),
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 90, 10)

	c.CrashDB(1)
	dets.suspectEverywhere(id.DBServer(1), true)
	waitPromotions(t, c, 1)

	// db-2 is the deterministic successor (lowest-ranked live member).
	if got := c.View().Current(id.DBServer(1)); got != id.DBServer(2) {
		t.Fatalf("shard promoted to %s, want db-2", got)
	}
	if _, ep := c.View().Primary(0); ep != 2 {
		t.Fatalf("epoch = %d, want 2", ep)
	}

	// The promoted primary serves new requests against the replicated state.
	issue(t, c, 1, "5")
	issue(t, c, 1, "5")
	mustBalances(t, c, 2, 80, 20)
	mustOracle(t, c)

	if n, lats := c.Promotions(); n != 1 {
		t.Fatalf("promotions = %d (latencies %v), want exactly 1", n, lats)
	}
}

// TestPromotionCommitsInDoubtBranch is the replay guarantee under 2PC: the
// primary crashes after voting yes but before the decide reaches it. The
// prepared record was streamed before the vote left, so the promoted backup
// holds the branch in-doubt; the retried Decide commits it there, and the
// client's original try succeeds without recomputation — same result, not
// re-execution.
func TestPromotionCommitsInDoubtBranch(t *testing.T) {
	dets := newReplDetectors()
	var fired atomic.Bool
	var cRef atomic.Pointer[Cluster]
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(100),
		Tuning:     deploy.Tuning{ReplicaFactor: 2},
		DBDetector: dets.factory(),
		Hooks: func(self id.NodeID) *core.Hooks {
			return &core.Hooks{
				Crash: func(p core.CrashPoint, rid id.ResultID) {
					if p == core.PointAfterPrepare && rid.Try == 1 && fired.CompareAndSwap(false, true) {
						c := cRef.Load()
						c.CrashDB(1)
						dets.suspectEverywhere(id.DBServer(1), true)
					}
				},
			}
		},
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cRef.Store(c)
	defer c.Stop()

	res := issue(t, c, 1, "10")
	if string(res) != "10" {
		t.Errorf("result = %q", res)
	}
	if !fired.Load() {
		t.Fatal("crash hook never fired")
	}
	waitPromotions(t, c, 1)
	deliveries := c.Client(1).Delivered()
	if len(deliveries) != 1 || deliveries[0].Tries != 1 {
		t.Errorf("deliveries = %+v, want the original try committed via replay, not recomputed", deliveries)
	}
	mustBalances(t, c, 2, 90, 10)
	mustOracle(t, c)
}

// TestFalseSuspicionFencedByEpoch: the primary is alive but the backup's
// detector wrongly suspects it. The backup promotes; the application tier
// advances to the higher epoch, rejects the stale primary's in-flight
// replies (staleRejects > 0), and the correction deposes the old primary so
// it stops serving. Exactly-once must survive the split-brain window.
func TestFalseSuspicionFencedByEpoch(t *testing.T) {
	dets := newReplDetectors()
	slowLogic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		db := tx.DBs()[0]
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(120 * time.Millisecond)}); err != nil {
			return nil, err
		}
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: 1}); err != nil {
			return nil, err
		}
		return []byte("done"), nil
	})
	cfg := Config{
		Logic:      slowLogic,
		Seed:       seedAccounts(0),
		Tuning:     deploy.Tuning{ReplicaFactor: 2},
		DBDetector: dets.factory(),
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Fire the false suspicion while the op sleeps inside the live primary,
	// so its reply lands after the view has moved on.
	go func() {
		time.Sleep(30 * time.Millisecond)
		dets.suspectEverywhere(id.DBServer(1), true)
	}()

	res := issue(t, c, 1, "x")
	if string(res) != "done" {
		t.Errorf("result = %q", res)
	}
	waitPromotions(t, c, 1)

	// The fence fired: stale replies were rejected by epoch…
	deadline := time.Now().Add(5 * time.Second)
	for c.StaleRejects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no stale-epoch rejections despite a deposed live primary")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// …and the correction deposed the old primary.
	srv := c.DataServer(1)
	if srv == nil {
		t.Fatal("old primary's server vanished")
	}
	for !srv.Deposed() {
		if time.Now().After(deadline) {
			t.Fatal("old primary never deposed itself")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Exactly-once: the effect exists exactly once on the serving replica.
	dst, _ := c.Engine(2).Store().GetInt("acct/dst")
	if dst != 1 {
		t.Errorf("dst = %d on promoted primary, want exactly-once", dst)
	}
	mustOracle(t, c)
}

// TestKillPrimaryUnderLoad crashes a primary while several clients pipeline
// transfers. Every request must still complete exactly-once, conservation
// must hold on the promoted replica, and exactly one promotion must happen.
func TestKillPrimaryUnderLoad(t *testing.T) {
	const clients = 3
	const perClient = 6
	dets := newReplDetectors()
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(1000),
		Clients:    clients,
		Tuning:     deploy.Tuning{Workers: 2, ReplicaFactor: 2},
		DBDetector: dets.factory(),
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	var wg sync.WaitGroup
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				if _, err := c.Client(cl).Issue(ctx, []byte("10")); err != nil {
					t.Errorf("client %d: %v", cl, err)
				}
				cancel()
			}
		}()
	}

	// Kill the primary mid-load.
	time.Sleep(60 * time.Millisecond)
	c.CrashDB(1)
	dets.suspectEverywhere(id.DBServer(1), true)
	waitPromotions(t, c, 1)
	wg.Wait()

	total := int64(clients * perClient * 10)
	mustBalances(t, c, 2, 1000-total, total)
	mustOracle(t, c)
	if n, _ := c.Promotions(); n != 1 {
		t.Fatalf("promotions = %d, want exactly 1", n)
	}
}

// TestRecoveredPrimaryRejoinsAsBackup: a deposed primary that comes back
// after a promotion rejoins its group as a backup, adopts the new primary's
// stream (full resync) and converges on the serving replica's log.
func TestRecoveredPrimaryRejoinsAsBackup(t *testing.T) {
	dets := newReplDetectors()
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(100),
		Tuning:     deploy.Tuning{ReplicaFactor: 2},
		DBDetector: dets.factory(),
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	issue(t, c, 1, "10")
	c.CrashDB(1)
	dets.suspectEverywhere(id.DBServer(1), true)
	waitPromotions(t, c, 1)
	issue(t, c, 1, "5")
	mustBalances(t, c, 2, 85, 15)

	// The old primary recovers: accuracy is restored and it rejoins as a
	// backup of the promoted primary.
	dets.suspectEverywhere(id.DBServer(1), false)
	if err := c.RecoverDB(1); err != nil {
		t.Fatal(err)
	}
	if c.Backup(1) == nil {
		t.Fatal("recovered deposed primary must rejoin as a backup")
	}

	issue(t, c, 1, "5")
	mustBalances(t, c, 2, 80, 20)

	// The rejoined backup converges on the serving primary's stream.
	st := c.Streamer(2)
	if st == nil {
		t.Fatal("promoted primary has no streamer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, seq := c.Backup(1).Applied()
		if st.Lag() == 0 && seq == st.Seq() && seq > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoined backup stuck: applied %d, stream %d, lag %d", seq, st.Seq(), st.Lag())
		}
		time.Sleep(2 * time.Millisecond)
	}
	mustOracle(t, c)
}

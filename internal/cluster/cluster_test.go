package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/transport"
)

// fastKnobs returns timing parameters small enough for quick tests but large
// enough to be robust under -race.
func fastKnobs(cfg *Config) {
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.SuspectTimeout = 40 * time.Millisecond
	cfg.ResendInterval = 30 * time.Millisecond
	cfg.CleanInterval = 10 * time.Millisecond
	cfg.ComputeTimeout = 3 * time.Second
	cfg.ClientBackoff = 50 * time.Millisecond
	cfg.ClientRebroadcast = 50 * time.Millisecond
	cfg.LockTimeout = 150 * time.Millisecond
}

// transferLogic moves `amount` (parsed from the request) from acct/src to
// acct/dst on database 1 and returns the new destination balance.
func transferLogic() core.Logic {
	return core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		amount, err := strconv.ParseInt(string(req), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad request: %w", err)
		}
		db := tx.DBs()[0]
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/src", Delta: -amount}); err != nil {
			return nil, err
		}
		rep, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: amount})
		if err != nil {
			return nil, err
		}
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpCheckGE, Key: "acct/src", Delta: 0}); err != nil {
			return nil, err
		}
		return []byte(strconv.FormatInt(rep.Num, 10)), nil
	})
}

func seedAccounts(initial int64) []kv.Write {
	return []kv.Write{
		{Key: "acct/src", Val: kv.EncodeInt(initial)},
		{Key: "acct/dst", Val: kv.EncodeInt(0)},
	}
}

func mustBalances(t *testing.T, c *Cluster, db int, wantSrc, wantDst int64) {
	t.Helper()
	e := c.Engine(db)
	src, _ := e.Store().GetInt("acct/src")
	dst, _ := e.Store().GetInt("acct/dst")
	if src != wantSrc || dst != wantDst {
		t.Fatalf("balances src=%d dst=%d, want src=%d dst=%d", src, dst, wantSrc, wantDst)
	}
}

func mustOracle(t *testing.T, c *Cluster) {
	t.Helper()
	if rep := c.CheckProperties(); !rep.Ok() {
		t.Fatalf("oracle violations:\n%s", rep)
	}
}

func issue(t *testing.T, c *Cluster, client int, req string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Client(client).Issue(ctx, []byte(req))
	if err != nil {
		t.Fatalf("Issue(%q): %v", req, err)
	}
	return res
}

// TestFailureFreeCommit is Figure 1(a): the nice run.
func TestFailureFreeCommit(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res := issue(t, c, 1, "10")
	if string(res) != "10" {
		t.Errorf("result = %q, want new dst balance 10", res)
	}
	mustBalances(t, c, 1, 90, 10)
	mustOracle(t, c)

	// A second request on the same client works and remains exactly-once.
	issue(t, c, 1, "5")
	mustBalances(t, c, 1, 85, 15)
	mustOracle(t, c)
}

// TestUserLevelAbortRetriesUntilCommit is Figure 1(b) followed by the
// footnote-4 behaviour: the databases refuse a result (vote no), the client
// retries behind the scenes, and a later try commits.
func TestUserLevelAbortRetriesUntilCommit(t *testing.T) {
	var attempts atomic.Int64
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		db := tx.DBs()[0]
		n := attempts.Add(1)
		if n <= 2 {
			// Poison the branch: the database will vote no.
			if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpCheckGE, Key: "acct/src", Delta: 1 << 40}); err != nil {
				return nil, err
			}
			return []byte("will-be-refused"), nil
		}
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: 7}); err != nil {
			return nil, err
		}
		return []byte("booked"), nil
	})
	cfg := Config{Logic: logic, Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res := issue(t, c, 1, "x")
	if string(res) != "booked" {
		t.Errorf("result = %q", res)
	}
	if got := attempts.Load(); got < 3 {
		t.Errorf("logic ran %d times, want >= 3 (two refused tries)", got)
	}
	dst, _ := c.Engine(1).Store().GetInt("acct/dst")
	if dst != 7 {
		t.Errorf("dst = %d, want exactly one committed attempt", dst)
	}
	mustOracle(t, c)
}

// crashPrimaryAt builds a deployment whose primary (appserver-1) crashes the
// first time the given point is reached on try 1.
func crashPrimaryAt(t *testing.T, point core.CrashPoint) (*Cluster, *atomic.Bool) {
	t.Helper()
	return crashPrimaryOn(t, Config{Logic: transferLogic(), Seed: seedAccounts(100)}, point, 0)
}

// crashPrimaryOn builds cfg's deployment whose primary (appserver-1) crashes
// the first time the given point is reached on try 1 of request seq, or of
// any request when seq is 0.
func crashPrimaryOn(t *testing.T, cfg Config, point core.CrashPoint, seq uint64) (*Cluster, *atomic.Bool) {
	t.Helper()
	var fired atomic.Bool
	var cRef atomic.Pointer[Cluster]
	cfg.Hooks = func(self id.NodeID) *core.Hooks {
		if self != id.AppServer(1) {
			return nil
		}
		return &core.Hooks{
			Crash: func(p core.CrashPoint, rid id.ResultID) {
				if p == point && rid.Try == 1 && (seq == 0 || rid.Seq == seq) && fired.CompareAndSwap(false, true) {
					cRef.Load().CrashApp(1)
				}
			},
		}
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cRef.Store(c)
	return c, &fired
}

// TestFailoverWithAbort is Figure 1(d): the primary crashes before the
// decision is written; a backup's cleaning thread aborts the try and the
// client's retry commits on a backup — exactly once.
func TestFailoverWithAbort(t *testing.T) {
	for _, point := range []core.CrashPoint{core.PointAfterRegA, core.PointAfterCompute, core.PointAfterPrepare} {
		point := point
		t.Run(string(point), func(t *testing.T) {
			c, fired := crashPrimaryAt(t, point)
			defer c.Stop()
			res := issue(t, c, 1, "10")
			if string(res) != "10" {
				t.Errorf("result = %q", res)
			}
			if !fired.Load() {
				t.Fatal("crash hook never fired")
			}
			mustBalances(t, c, 1, 90, 10)
			mustOracle(t, c)
		})
	}
}

// TestFailoverWithCommit is Figure 1(c): the primary crashes after writing
// (result, commit) into regD but before terminating; the backup's cleaning
// thread reads the committed decision out of the register, finishes the
// commit at the databases, and delivers the crashed primary's result.
func TestFailoverWithCommit(t *testing.T) {
	for _, point := range []core.CrashPoint{core.PointAfterRegD, core.PointBeforeResult} {
		point := point
		t.Run(string(point), func(t *testing.T) {
			c, fired := crashPrimaryAt(t, point)
			defer c.Stop()
			res := issue(t, c, 1, "10")
			if string(res) != "10" {
				t.Errorf("result = %q (must be the crashed primary's computed result)", res)
			}
			if !fired.Load() {
				t.Fatal("crash hook never fired")
			}
			mustBalances(t, c, 1, 90, 10)
			mustOracle(t, c)
			// Exactly-once despite the crash: one committed try only.
			deliveries := c.Client(1).Delivered()
			if len(deliveries) != 1 || deliveries[0].Tries != 1 {
				t.Errorf("deliveries = %+v, want the original try 1", deliveries)
			}
		})
	}
}

// TestReadOnlyTryFailover: the primary crashes after computing a read-only
// try, before its result goes out. The try opened no branch and wrote no
// register, so nothing is left to clean: the client's retransmission of the
// same try is recomputed by a backup and delivered (T.1), and the oracle and
// money conservation hold.
func TestReadOnlyTryFailover(t *testing.T) {
	cfg := Config{
		Logic: snapLogic(),
		Seed: []kv.Write{
			{Key: "acct/sa", Val: kv.EncodeInt(100)},
			{Key: "acct/sb", Val: kv.EncodeInt(100)},
		},
	}
	c, fired := crashPrimaryOn(t, cfg, core.PointAfterCompute, 2)
	defer c.Stop()
	issue(t, c, 1, "sa:sb:10") // request 1 commits through the primary
	if got := issue(t, c, 1, "read:sa"); string(got) != "90" {
		t.Errorf("read of sa = %q, want 90", got)
	}
	if !fired.Load() {
		t.Fatal("crash hook never fired")
	}
	deliveries := c.Client(1).Delivered()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %+v, want 2", deliveries)
	}
	if d := deliveries[1]; d.Tries != 1 || d.Participants == nil || len(d.Participants) != 0 {
		t.Errorf("read delivery = %+v, want try 1 with an empty dlist", d)
	}
	sa, _ := c.Engine(1).Store().GetInt("acct/sa")
	sb, _ := c.Engine(1).Store().GetInt("acct/sb")
	if sa != 90 || sb != 110 {
		t.Errorf("balances sa=%d sb=%d, want 90 and 110", sa, sb)
	}
	mustOracle(t, c)
	rid := id.ResultID{Client: id.Client(1), Seq: 2, Try: 1}
	for i := 2; i <= 3; i++ {
		if dump := c.App(i).DebugTry(rid); !strings.Contains(dump, "regA=unset") || !strings.Contains(dump, "regD=unset") {
			t.Errorf("read-only try wrote a register: %s", dump)
		}
	}
}

// TestRequestsContinueAfterPrimaryCrash: after fail-over the remaining
// majority keeps serving new requests.
func TestRequestsContinueAfterPrimaryCrash(t *testing.T) {
	c, _ := crashPrimaryAt(t, core.PointAfterCompute)
	defer c.Stop()
	issue(t, c, 1, "10")
	// Three more requests against the 2-server middle tier.
	for i := 0; i < 3; i++ {
		issue(t, c, 1, "5")
	}
	mustBalances(t, c, 1, 100-10-15, 25)
	mustOracle(t, c)
}

// TestDBCrashBetweenComputeAndPrepare: the database crashes after the
// business logic ran but before prepare; its unprepared branch evaporates.
// The incarnation check must abort the try instead of committing a lost
// update, and the retry commits exactly once.
func TestDBCrashBetweenComputeAndPrepare(t *testing.T) {
	var fired atomic.Bool
	var cRef atomic.Pointer[Cluster]
	cfg := Config{
		Logic: transferLogic(),
		Seed:  seedAccounts(100),
		Hooks: func(self id.NodeID) *core.Hooks {
			return &core.Hooks{
				Crash: func(p core.CrashPoint, rid id.ResultID) {
					if p == core.PointAfterCompute && rid.Try == 1 && fired.CompareAndSwap(false, true) {
						c := cRef.Load()
						c.CrashDB(1)
						if err := c.RecoverDB(1); err != nil {
							t.Errorf("recover: %v", err)
						}
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
		t.Fatal("db crash hook never fired")
	}
	deliveries := c.Client(1).Delivered()
	if len(deliveries) != 1 || deliveries[0].Tries < 2 {
		t.Errorf("deliveries = %+v, want a retried try (>= 2)", deliveries)
	}
	mustBalances(t, c, 1, 90, 10)
	mustOracle(t, c)
}

// TestDBCrashAfterPrepareCommitsAfterRecovery exercises T.2 and the XA
// durability contract: the database crashes between its yes vote and the
// decide; on recovery its in-doubt branch must commit from the retried
// Decide, and the client's original try succeeds without recomputation.
func TestDBCrashAfterPrepareCommitsAfterRecovery(t *testing.T) {
	var fired atomic.Bool
	var cRef atomic.Pointer[Cluster]
	cfg := Config{
		Logic: transferLogic(),
		Seed:  seedAccounts(100),
		Hooks: func(self id.NodeID) *core.Hooks {
			return &core.Hooks{
				Crash: func(p core.CrashPoint, rid id.ResultID) {
					if p == core.PointAfterPrepare && rid.Try == 1 && fired.CompareAndSwap(false, true) {
						cRef.Load().CrashDB(1)
						go func() {
							time.Sleep(80 * time.Millisecond)
							if err := cRef.Load().RecoverDB(1); err != nil {
								t.Errorf("recover: %v", err)
							}
						}()
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
	deliveries := c.Client(1).Delivered()
	if len(deliveries) != 1 || deliveries[0].Tries != 1 {
		t.Errorf("deliveries = %+v, want the original try to commit", deliveries)
	}
	mustBalances(t, c, 1, 90, 10)
	mustOracle(t, c)
}

// TestRecoveredDBIsPublishedBeforeItServes cycles CrashDB/RecoverDB with a
// request in flight. A recovered server's [Ready] makes the application
// servers resend the Decide, its ack lets the client return, and the caller
// then looks the engine up: the cluster must have published the node before
// the server sent anything, or Engine(1) is still nil at that moment.
func TestRecoveredDBIsPublishedBeforeItServes(t *testing.T) {
	var cRef atomic.Pointer[Cluster]
	cfg := Config{
		Logic: transferLogic(),
		Seed:  seedAccounts(100),
		Hooks: func(self id.NodeID) *core.Hooks {
			return &core.Hooks{
				Crash: func(p core.CrashPoint, rid id.ResultID) {
					if p == core.PointAfterPrepare && rid.Try == 1 {
						cRef.Load().CrashDB(1)
						go func() {
							time.Sleep(20 * time.Millisecond)
							if err := cRef.Load().RecoverDB(1); err != nil {
								t.Errorf("recover: %v", err)
							}
						}()
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

	// The sniffer runs on the sender's goroutine, so it sees the cluster's
	// state at the instant the recovered server's first message leaves.
	var readies atomic.Int64
	c.Net.AddSniffer(func(ev transport.SniffEvent) {
		if _, ok := ev.Payload.(msg.Ready); ok && ev.From == id.DBServer(1) {
			readies.Add(1)
			if c.Engine(1) == nil || c.DataServer(1) == nil {
				t.Errorf("dbserver-1 announced Ready before the cluster published it")
			}
		}
	})

	const cycles = 5
	for i := 1; i <= cycles; i++ {
		issue(t, c, 1, "10")
		if c.Engine(1) == nil || c.DataServer(1) == nil {
			t.Fatalf("cycle %d: Issue returned while Engine(1)/DataServer(1) were still nil", i)
		}
	}
	if readies.Load() < cycles {
		t.Fatalf("saw %d Ready announcements, want one per crash/recover cycle (%d)", readies.Load(), cycles)
	}
	mustBalances(t, c, 1, 100-10*cycles, 10*cycles)
	mustOracle(t, c)
}

// TestFalseSuspicionIsSafe: a backup permanently (then transiently) suspects
// the live primary, so its cleaning thread races the executor on every try.
// Whatever interleaving happens, the agreement properties must hold and the
// transfer must commit exactly once after accuracy is restored.
func TestFalseSuspicionIsSafe(t *testing.T) {
	dets := make(map[id.NodeID]*fd.Scripted)
	var detMu sync.Mutex
	slowLogic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		db := tx.DBs()[0]
		// Slow compute gives the false-suspicion cleaner time to interfere.
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(30 * time.Millisecond)}); err != nil {
			return nil, err
		}
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "acct/dst", Delta: 1}); err != nil {
			return nil, err
		}
		return []byte("done"), nil
	})
	cfg := Config{
		Logic: slowLogic,
		Seed:  seedAccounts(0),
		Detector: func(self id.NodeID) fd.Detector {
			detMu.Lock()
			defer detMu.Unlock()
			d := fd.NewScripted()
			dets[self] = d
			return d
		},
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// appserver-2 and appserver-3 falsely suspect the primary.
	detMu.Lock()
	dets[id.AppServer(2)].Set(id.AppServer(1), true)
	dets[id.AppServer(3)].Set(id.AppServer(1), true)
	detMu.Unlock()

	// Eventual accuracy: suspicion lifts shortly.
	go func() {
		time.Sleep(250 * time.Millisecond)
		detMu.Lock()
		dets[id.AppServer(2)].Set(id.AppServer(1), false)
		dets[id.AppServer(3)].Set(id.AppServer(1), false)
		detMu.Unlock()
	}()

	res := issue(t, c, 1, "x")
	if string(res) != "done" {
		t.Errorf("result = %q", res)
	}
	dst, _ := c.Engine(1).Store().GetInt("acct/dst")
	if dst != 1 {
		t.Errorf("dst = %d, want exactly-once despite cleaner races", dst)
	}
	mustOracle(t, c)
}

// TestConcurrentClientsConserveMoney: several clients transfer concurrently;
// serializability at the database plus exactly-once end to end must conserve
// the total and account for every delivered result exactly once.
func TestConcurrentClientsConserveMoney(t *testing.T) {
	const clients = 3
	const perClient = 4
	cfg := Config{
		Logic:   transferLogic(),
		Seed:    seedAccounts(1000),
		Clients: clients,
		Tuning:  deploy.Tuning{Workers: 2},
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
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if _, err := c.Client(cl).Issue(ctx, []byte("10")); err != nil {
					t.Errorf("client %d: %v", cl, err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()

	total := int64(clients * perClient * 10)
	mustBalances(t, c, 1, 1000-total, total)
	mustOracle(t, c)
}

// TestMultipleDataServersAtomicity: the travel pattern — bookings span three
// databases; commit must be all-or-nothing across them (V.2/A.3), including
// when one database refuses.
func TestMultipleDataServersAtomicity(t *testing.T) {
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		dbs := tx.DBs()
		// Book one unit on each of flight, hotel, car.
		for i, key := range []string{"flight", "hotel", "car"} {
			if _, err := tx.Exec(ctx, dbs[i], msg.Op{Code: msg.OpAdd, Key: key, Delta: -1}); err != nil {
				return nil, err
			}
			if _, err := tx.Exec(ctx, dbs[i], msg.Op{Code: msg.OpCheckGE, Key: key, Delta: 0}); err != nil {
				return nil, err
			}
		}
		return []byte("itinerary"), nil
	})
	cfg := Config{
		Logic:       logic,
		DataServers: 3,
		Seed: []kv.Write{
			{Key: "flight", Val: kv.EncodeInt(5)},
			{Key: "hotel", Val: kv.EncodeInt(5)},
			{Key: "car", Val: kv.EncodeInt(5)},
		},
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res := issue(t, c, 1, "trip")
	if string(res) != "itinerary" {
		t.Errorf("result = %q", res)
	}
	// Each database committed its own piece.
	if n, _ := c.Engine(1).Store().GetInt("flight"); n != 4 {
		t.Errorf("flight = %d", n)
	}
	if n, _ := c.Engine(2).Store().GetInt("hotel"); n != 4 {
		t.Errorf("hotel = %d", n)
	}
	if n, _ := c.Engine(3).Store().GetInt("car"); n != 4 {
		t.Errorf("car = %d", n)
	}
	mustOracle(t, c)
}

// TestMultiDBRefusalAbortsEverywhere: when one database votes no, no database
// may commit the try (V.2), and the client eventually gets a sold-out result
// computed the footnote-4 way.
func TestMultiDBRefusalAbortsEverywhere(t *testing.T) {
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		dbs := tx.DBs()
		// Check availability first (footnote 4: compute a result that can
		// run to completion).
		rep, err := tx.Exec(ctx, dbs[1], msg.Op{Code: msg.OpGet, Key: "hotel"})
		if err != nil {
			return nil, err
		}
		if rep.Num <= 0 {
			return []byte("sold-out"), nil
		}
		for i, key := range []string{"flight", "hotel"} {
			if _, err := tx.Exec(ctx, dbs[i], msg.Op{Code: msg.OpAdd, Key: key, Delta: -1}); err != nil {
				return nil, err
			}
			if _, err := tx.Exec(ctx, dbs[i], msg.Op{Code: msg.OpCheckGE, Key: key, Delta: 0}); err != nil {
				return nil, err
			}
		}
		return []byte("booked"), nil
	})
	cfg := Config{
		Logic:       logic,
		DataServers: 2,
		Seed: []kv.Write{
			{Key: "flight", Val: kv.EncodeInt(5)},
			{Key: "hotel", Val: kv.EncodeInt(0)}, // no hotel rooms
		},
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res := issue(t, c, 1, "trip")
	if string(res) != "sold-out" {
		t.Errorf("result = %q, want the informational sold-out result", res)
	}
	// Nothing was booked anywhere.
	if n, _ := c.Engine(1).Store().GetInt("flight"); n != 5 {
		t.Errorf("flight = %d, want untouched", n)
	}
	mustOracle(t, c)
}

// TestRandomizedCrashSchedules sweeps every crash point over fresh clusters,
// asserting exactly-once and the full oracle each time.
func TestRandomizedCrashSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule sweep skipped in -short mode")
	}
	points := []core.CrashPoint{
		core.PointAfterRegA, core.PointAfterCompute, core.PointAfterPrepare,
		core.PointAfterRegD, core.PointBeforeResult,
	}
	for _, point := range points {
		point := point
		t.Run(string(point), func(t *testing.T) {
			t.Parallel()
			c, _ := crashPrimaryAt(t, point)
			defer c.Stop()
			issue(t, c, 1, "10")
			issue(t, c, 1, "10") // a second request after the fail-over
			mustBalances(t, c, 1, 80, 20)
			mustOracle(t, c)
		})
	}
}

// TestLossyNetworkStillExactlyOnce: with message loss and duplication at the
// network, the reliable-channel layer (retransmission + dedup) must preserve
// exactly-once end to end — the Section-5 claim about reliable channels.
func TestLossyNetworkStillExactlyOnce(t *testing.T) {
	cfg := Config{
		Logic:      transferLogic(),
		Seed:       seedAccounts(100),
		Net:        transport.Options{LossProb: 0.10, DupProb: 0.10, Seed: 7},
		Reliable:   true,
		Retransmit: 15 * time.Millisecond,
	}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	issue(t, c, 1, "10")
	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 80, 20)
	mustOracle(t, c)
}

// TestLossyConfigRequiresReliable documents the invariant that raw lossy
// networks are rejected (the paper's protocol assumes reliable channels).
func TestLossyConfigRequiresReliable(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Net: transport.Options{LossProb: 0.5}}
	if _, err := New(cfg); err == nil {
		t.Fatal("lossy network without reliable channels must be rejected")
	}
}

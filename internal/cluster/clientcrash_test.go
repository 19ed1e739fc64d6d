package cluster

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/xadb"
)

// TestClientCrashReleasesDatabaseResources covers the paper's "If the client
// crashes, the request is executed at-most-once and the database resources
// are eventually released" (Section 5) — T.2's non-blocking promise.
func TestClientCrashReleasesDatabaseResources(t *testing.T) {
	slow := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		db := tx.DBs()[0]
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "hot", Delta: 1}); err != nil {
			return nil, err
		}
		// Hold the lock while the client dies.
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(60 * time.Millisecond)}); err != nil {
			return nil, err
		}
		return []byte("done"), nil
	})
	cfg := Config{Logic: slow}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// The client "crashes" (context cancelled) while the try is mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, issueErr := c.Client(1).Issue(ctx, []byte("r"))
	cancel()
	if issueErr == nil {
		t.Fatal("issue must fail when the client dies")
	}

	// The executor finishes the try on its own: the database decides and the
	// lock on "hot" is released — a fresh transaction can take it.
	rid2 := id.ResultID{Client: id.Client(99), Seq: 1, Try: 1}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := c.Engine(1).Exec(context.Background(), rid2, msg.Op{Code: msg.OpPut, Key: "hot", Val: []byte("x")})
		if rep.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released after client crash: %s", rep.Err)
		}
		c.Engine(1).Decide(rid2, msg.OutcomeAbort)
		rid2.Try++
		time.Sleep(10 * time.Millisecond)
	}

	// At-most-once: the crashed client's request committed at most one try.
	committed := 0
	for rid, o := range c.Engine(1).Outcomes() {
		if rid.Client == id.Client(1) && o == msg.OutcomeCommit {
			committed++
		}
	}
	if committed > 1 {
		t.Fatalf("client crash allowed %d commits", committed)
	}
	mustOracle(t, c)
}

// TestAppServerMinorityPartition: a partitioned (not crashed) application
// server cannot block the majority, and safety holds when the partition
// heals — the asynchronous model's equivalent of a slow node.
func TestAppServerMinorityPartition(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Partition appserver-3 from everyone.
	minority := []id.NodeID{id.AppServer(3)}
	rest := []id.NodeID{id.AppServer(1), id.AppServer(2), id.DBServer(1), id.Client(1)}
	c.Net.Partition(minority, rest)

	issue(t, c, 1, "10")
	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 80, 20)

	// Heal; the rejoined replica learns decisions lazily and further
	// requests still work.
	c.Net.Heal()
	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 70, 30)
	mustOracle(t, c)
}

// TestWorkerPoolAblation: the paper's single compute thread serializes
// same-server requests; the Workers knob (a documented generalization)
// overlaps them. Both must be exactly-once; the pool must not be slower.
func TestWorkerPoolAblation(t *testing.T) {
	run := func(workers int) time.Duration {
		logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			db := tx.DBs()[0]
			if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(20 * time.Millisecond)}); err != nil {
				return nil, err
			}
			key := "k/" + string(req)
			if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: key, Delta: 1}); err != nil {
				return nil, err
			}
			return req, nil
		})
		cfg := Config{Logic: logic, Clients: 3, Tuning: deploy.Tuning{Workers: workers}}
		fastKnobs(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		start := time.Now()
		done := make(chan error, 3)
		for cl := 1; cl <= 3; cl++ {
			cl := cl
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, err := c.Client(cl).Issue(ctx, []byte(strconv.Itoa(cl)))
				done <- err
			}()
		}
		for i := 0; i < 3; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		el := time.Since(start)
		for cl := 1; cl <= 3; cl++ {
			if n, _ := c.Engine(1).Store().GetInt("k/" + strconv.Itoa(cl)); n != 1 {
				t.Fatalf("workers=%d: k/%d = %d, want exactly-once", workers, cl, n)
			}
		}
		mustOracle(t, c)
		return el
	}
	serial := run(1)
	pooled := run(4)
	t.Logf("3 concurrent clients: workers=1 %v, workers=4 %v", serial, pooled)
	if pooled > serial*2 {
		t.Errorf("worker pool slower than serial: %v vs %v", pooled, serial)
	}
}

// TestIncarnationVisibleThroughDataServer: the Ready notification carries the
// new incarnation; a vote from a different incarnation than the one the
// executor computed against must abort (unit-level check of the wiring the
// integration tests rely on).
func TestIncarnationVisibleThroughDataServer(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	inc1 := c.Engine(1).Incarnation()
	c.CrashDB(1)
	if err := c.RecoverDB(1); err != nil {
		t.Fatal(err)
	}
	if inc2 := c.Engine(1).Incarnation(); inc2 != inc1+1 {
		t.Fatalf("incarnation %d -> %d, want +1", inc1, inc2)
	}
	// The recovered database serves new requests normally.
	issue(t, c, 1, "10")
	mustBalances(t, c, 1, 90, 10)
	mustOracle(t, c)
}

// TestComputeTimeoutAbortsTryAndRetries: a hung business logic must not wedge
// the protocol — the per-try compute budget expires, the try aborts with the
// paper's (nil, abort) decision, and a later try (where the logic behaves)
// commits.
func TestComputeTimeoutAbortsTryAndRetries(t *testing.T) {
	var calls atomic.Int64
	logic := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // hang until the compute budget expires
			return nil, ctx.Err()
		}
		db := tx.DBs()[0]
		if _, err := tx.Exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: "n", Delta: 1}); err != nil {
			return nil, err
		}
		return []byte("ok"), nil
	})
	cfg := Config{Logic: logic}
	fastKnobs(&cfg)
	cfg.ComputeTimeout = 60 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	res := issue(t, c, 1, "r")
	if string(res) != "ok" {
		t.Fatalf("res = %q", res)
	}
	if calls.Load() < 2 {
		t.Fatalf("logic ran %d times, want a retry after the hang", calls.Load())
	}
	if n, _ := c.Engine(1).Store().GetInt("n"); n != 1 {
		t.Fatalf("n = %d, want exactly-once", n)
	}
	mustOracle(t, c)
}

// TestRegisterReadEventuallyObservesRemoteWrite checks the wo-register read
// semantics across replicas: a value written on one application server
// eventually becomes readable on every other (the decision broadcast).
func TestRegisterReadEventuallyObservesRemoteWrite(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	issue(t, c, 1, "10") // appserver-1 executes try 1: writes regA and regD
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	for i := 2; i <= 3; i++ {
		app := c.App(i)
		deadline := time.Now().Add(3 * time.Second)
		for {
			owner, okA := app.Registers().ReadA(rid)
			dec, okD := app.Registers().ReadD(rid)
			if okA && okD {
				if owner != id.AppServer(1) {
					t.Fatalf("replica %d sees owner %v", i, owner)
				}
				if !dec.Committed() {
					t.Fatalf("replica %d sees %v", i, dec)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never observed the registers (A=%v D=%v)", i, okA, okD)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestEngineOutcomesSnapshot guards the oracle's data source.
func TestEngineOutcomesSnapshot(t *testing.T) {
	cfg := Config{Logic: transferLogic(), Seed: seedAccounts(100)}
	fastKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	issue(t, c, 1, "10")
	outs := c.Engine(1).Outcomes()
	if len(outs) == 0 {
		t.Fatal("no outcomes recorded")
	}
	// The snapshot is a copy: mutating it must not affect the engine.
	var e *xadb.Engine = c.Engine(1)
	for rid := range outs {
		outs[rid] = msg.OutcomeAbort
	}
	for _, o := range e.Outcomes() {
		if o != msg.OutcomeCommit {
			t.Fatal("snapshot aliased engine state")
		}
	}
}

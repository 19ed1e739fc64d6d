package cluster

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/kv"
)

// queueTimers widens the fast test timings for hot-key speculative runs.
// Chains stretch a try's prepare→vote path across its predecessors' whole
// commit paths, so the retry machinery must sit well above the chain commit
// latency: a rebroadcast below it spawns duplicate tries that are guaranteed
// to abort (exactly-once picks one winner per request), and in queue mode
// every such abort cascades to the whole dependent chain — a retry storm,
// not liveness. Same discipline as the queue bench's generous timers. The
// vote-gate bound gets a wider berth than the lock timeout for the same
// reason: gates wait on whole commit paths, and these tests measure
// behaviour, not timeout churn.
func queueTimers(cfg *Config) {
	fastKnobs(cfg)
	cfg.LockTimeout = 2 * time.Second
	cfg.SuspectTimeout = 300 * time.Millisecond
	cfg.ResendInterval = 500 * time.Millisecond
	cfg.ClientBackoff = time.Second
	cfg.ClientRebroadcast = time.Second
}

// queueKnobs is queueTimers with queue-oriented deterministic execution on.
func queueKnobs(cfg *Config) {
	queueTimers(cfg)
	cfg.QueueExec = true
}

// queueWorkload drives `requests` pipelined transfers over a deliberately hot
// account set (every transfer debits account 0 — maximal write conflicts) and
// returns the final balances.
func queueWorkload(t *testing.T, c *Cluster, accts []string, requests, inflight int) map[string]int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		req := accts[0] + ":" + accts[1+i%(len(accts)-1)] + ":1"
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- fmt.Errorf("issue %s: %w", req, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	balances := make(map[string]int64, len(accts))
	for _, a := range accts {
		bal, err := c.Engine(1).Store().GetInt("acct/" + a)
		if err != nil {
			t.Fatalf("read %s: %v", a, err)
		}
		balances[a] = bal
	}
	return balances
}

// TestQueueParityWithLockMode runs the same hot-key bank workload through
// strict 2PL and through queue-oriented deterministic execution, and asserts
// they are observationally identical: same final balances, both oracle-clean.
// The queue run must never touch the lock manager (counter-verified) while
// actually planning batches; the lock run must show the acquisitions that
// define today's behaviour — QueueExec off reproduces it exactly.
func TestQueueParityWithLockMode(t *testing.T) {
	const (
		requests = 48
		inflight = 16
		accounts = 8
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("qp%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(100)})
	}

	run := func(queueMode bool) (map[string]int64, core.DataServerStats, uint64) {
		cfg := Config{
			Shards:      1,
			Logic:       transferKeyed(),
			Seed:        seed,
			Tuning:      deploy.Tuning{Workers: inflight},
			Terminators: inflight,
		}
		if queueMode {
			queueKnobs(&cfg)
		} else {
			queueTimers(&cfg) // same timers and conflict bound, fair comparison
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		balances := queueWorkload(t, c, accts, requests, inflight)
		mustOracle(t, c)
		return balances, c.DataServer(1).Stats(), c.Engine(1).LockStats().Acquires
	}

	lockBal, lockStats, lockAcquires := run(false)
	queueBal, queueStats, queueAcquires := run(true)

	for a, want := range lockBal {
		if got := queueBal[a]; got != want {
			t.Errorf("balance of %s diverged: lock = %d, queue = %d", a, want, got)
		}
	}
	// The property the mode exists for, end to end: a whole contended run
	// without one lock acquisition — and not vacuously, the planner really
	// carried the operations.
	if queueAcquires != 0 {
		t.Errorf("queue mode acquired %d locks, want 0", queueAcquires)
	}
	if queueStats.PlannedBatches == 0 || queueStats.PlannedOps == 0 {
		t.Errorf("queue mode planned nothing: %s", queueStats)
	}
	// Off means off: the lock path runs exactly as before — three keyed
	// operations per commit, each an acquisition — and no batch planning.
	if lockAcquires < 3*requests {
		t.Errorf("lock mode acquired %d locks for %d requests, want >= %d", lockAcquires, requests, 3*requests)
	}
	if lockStats.PlannedBatches != 0 || lockStats.PlannedOps != 0 {
		t.Errorf("lock mode ran the planner: %s", lockStats)
	}
	t.Logf("lock:  %d acquires, %s", lockAcquires, lockStats)
	t.Logf("queue: %d acquires, %s", queueAcquires, queueStats)
}

// TestQueuePrimaryCrashMidRun crashes the primary application server while a
// pipelined hot-key run executes in queue mode. Clients must still commit
// every request exactly once (surviving servers finish or re-execute orphaned
// tries; speculative chains built on aborted tries cascade and retry), money
// must be conserved, the A.1 oracle must hold — and the lock manager must
// still never have been touched.
func TestQueuePrimaryCrashMidRun(t *testing.T) {
	const (
		requests = 24
		inflight = 8
		accounts = 6
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("qc%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(1000)})
	}
	cfg := Config{
		Shards:      1,
		Logic:       transferKeyed(),
		Seed:        seed,
		Tuning:      deploy.Tuning{Workers: inflight},
		Terminators: inflight,
	}
	queueKnobs(&cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		req := accts[i%accounts] + ":" + accts[(i+1)%accounts] + ":1"
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- fmt.Errorf("issue %s: %w", req, err)
			}
		}()
		if i == requests/3 {
			// Mid-run: speculative chains are in flight right now, and some
			// of their tries are about to become orphans.
			c.CrashApp(1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var total int64
	for _, a := range accts {
		bal, err := c.Engine(1).Store().GetInt("acct/" + a)
		if err != nil {
			t.Fatalf("read %s: %v", a, err)
		}
		total += bal
	}
	if total != int64(accounts)*1000 {
		t.Errorf("total balance = %d, want %d (money not conserved across the crash)", total, accounts*1000)
	}
	if acq := c.Engine(1).LockStats().Acquires; acq != 0 {
		t.Errorf("queue mode acquired %d locks across the crash, want 0", acq)
	}
	mustOracle(t, c)
}

// snapLogic is transferKeyed plus a read-only fast path: a "read:acct"
// request answers from the engine's last-executed-batch snapshot via
// Tx.GetFast — no branch, no locks, no commit path.
func snapLogic() core.Logic {
	keyed := transferKeyed()
	return core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		if acct, ok := strings.CutPrefix(string(req), "read:"); ok {
			_, bal, err := tx.GetFast(ctx, "acct/"+acct)
			if err != nil {
				return nil, err
			}
			return []byte(strconv.FormatInt(bal, 10)), nil
		}
		return keyed.Compute(ctx, tx, req)
	})
}

// TestQueueSnapReadFastPath commits transfers and then reads a balance
// through the speculative read-only fast path, in both modes: the answer
// must reflect every committed transfer, and in queue mode the read must be
// served as a snapshot read at the batch boundary (counter-verified) — still
// without lock acquisitions.
func TestQueueSnapReadFastPath(t *testing.T) {
	for _, mode := range []string{"lock", "queue"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{
				Shards: 1,
				Logic:  snapLogic(),
				Seed: []kv.Write{
					{Key: "acct/sa", Val: kv.EncodeInt(100)},
					{Key: "acct/sb", Val: kv.EncodeInt(100)},
				},
			}
			if mode == "queue" {
				queueKnobs(&cfg)
			} else {
				fastKnobs(&cfg)
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()

			issue(t, c, 1, "sa:sb:10")
			issue(t, c, 1, "sa:sb:5")
			if got := issue(t, c, 1, "read:sa"); string(got) != "85" {
				t.Errorf("fast read of sa = %s, want 85", got)
			}
			if got := issue(t, c, 1, "read:sb"); string(got) != "115" {
				t.Errorf("fast read of sb = %s, want 115", got)
			}
			mustOracle(t, c)
			st := c.DataServer(1).Stats()
			if mode == "queue" {
				if st.SnapReads < 2 {
					t.Errorf("served %d snapshot reads, want >= 2 (%s)", st.SnapReads, st)
				}
				if acq := c.Engine(1).LockStats().Acquires; acq != 0 {
					t.Errorf("queue mode acquired %d locks, want 0", acq)
				}
			}
		})
	}
}

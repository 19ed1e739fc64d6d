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

// queueKnobs widens the fast test timings for hot-key speculative runs.
// Chains stretch a try's prepare→vote path across its predecessors' whole
// commit paths, so the retry machinery must sit well above the chain commit
// latency: a rebroadcast below it spawns duplicate tries that are guaranteed
// to abort (exactly-once picks one winner per request), and every such abort
// cascades to the whole dependent chain — a retry storm, not liveness. The
// vote-gate bound gets a wide berth for the same reason: gates wait on whole
// commit paths, and these tests measure behaviour, not timeout churn.
func queueKnobs(cfg *Config) {
	fastKnobs(cfg)
	cfg.LockTimeout = 2 * time.Second
	cfg.SuspectTimeout = 300 * time.Millisecond
	cfg.ResendInterval = 500 * time.Millisecond
	cfg.ClientBackoff = time.Second
	cfg.ClientRebroadcast = time.Second
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

// TestQueueConservesWithoutLocks runs a hot-key bank workload — every
// transfer debits the same account — through the speculative executor and
// asserts the exact final balances, the A.1 oracle, and that the run was
// carried by the planner and the per-key chains with zero lock acquisitions.
func TestQueueConservesWithoutLocks(t *testing.T) {
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
	balances := queueWorkload(t, c, accts, requests, inflight)
	mustOracle(t, c)

	want := map[string]int64{accts[0]: 100 - requests}
	for i := 0; i < requests; i++ {
		want[accts[1+i%(accounts-1)]]++
	}
	for _, a := range accts[1:] {
		want[a] += 100
	}
	for a, w := range want {
		if got := balances[a]; got != w {
			t.Errorf("balance of %s = %d, want %d", a, got, w)
		}
	}
	st, spec := c.DataServer(1).Stats(), c.Engine(1).SpecStats()
	if acq := c.Engine(1).LockStats().Acquires; acq != 0 {
		t.Errorf("acquired %d locks, want 0", acq)
	}
	// Not vacuously: the planner and the chains really carried the run.
	if st.PlannedBatches == 0 || st.PlannedOps == 0 || spec.Execs < 3*requests {
		t.Errorf("run not carried by the speculative executor: %s %s", st, spec)
	}
	t.Logf("%s %s", st, spec)
}

// TestQueuePrimaryCrashMidRun crashes the primary application server while a
// pipelined hot-key run executes. Clients must still commit
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
		t.Errorf("acquired %d locks across the crash, want 0", acq)
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
// through the read-only fast path: the answer must reflect every committed
// transfer, and the read must be served as a snapshot read at the batch
// boundary (counter-verified) without lock acquisitions. The subtest keeps
// the name of the execution mode it runs in, the queue executor.
func TestQueueSnapReadFastPath(t *testing.T) {
	t.Run("queue", func(t *testing.T) {
		cfg := Config{
			Shards: 1,
			Logic:  snapLogic(),
			Seed: []kv.Write{
				{Key: "acct/sa", Val: kv.EncodeInt(100)},
				{Key: "acct/sb", Val: kv.EncodeInt(100)},
			},
		}
		queueKnobs(&cfg)
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
		if st := c.DataServer(1).Stats(); st.SnapReads < 2 {
			t.Errorf("served %d snapshot reads, want >= 2 (%s)", st.SnapReads, st)
		}
		if acq := c.Engine(1).LockStats().Acquires; acq != 0 {
			t.Errorf("acquired %d locks, want 0", acq)
		}
	})
}

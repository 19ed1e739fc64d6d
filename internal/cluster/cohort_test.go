package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"etx/internal/consensus"
	"etx/internal/deploy"
	"etx/internal/kv"
)

// consensusTotals sums the consensus counters over every live app server
// (gauges — LiveSlots, Applied, Floor — take the maximum instead).
func consensusTotals(c *Cluster, apps int) consensus.Stats {
	var total consensus.Stats
	for i := 1; i <= apps; i++ {
		if a := c.App(i); a != nil {
			st := a.ConsensusStats()
			total.Instances += st.Instances
			total.Proposes += st.Proposes
			total.Rounds += st.Rounds
			total.Messages += st.Messages
			total.FastPath += st.FastPath
			total.BatchOps += st.BatchOps
			total.Resends += st.Resends
			total.SlotsPruned += st.SlotsPruned
			total.CheckpointsServed += st.CheckpointsServed
			total.CheckpointsInstalled += st.CheckpointsInstalled
			total.LiveSlots = max(total.LiveSlots, st.LiveSlots)
			total.Applied = max(total.Applied, st.Applied)
			total.Floor = max(total.Floor, st.Floor)
		}
	}
	return total
}

// runCohortWorkload drives `requests` pipelined disjoint transfers (every
// account pays 1 to the next, round-robin) and returns the per-account
// balances. Identical inputs must produce identical final balances at every
// depth: every request commits exactly once and the adds commute.
func runCohortWorkload(t *testing.T, c *Cluster, accts []string, requests, inflight int) map[string]int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		src := accts[i%len(accts)]
		dst := accts[(i+1)%len(accts)]
		req := src + ":" + dst + ":1"
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

// TestCohortParityWithUnbatched runs the same workload unbatched — one
// request at a time, the depth-1 point where every slot carries one write,
// the paper's one instance per write — and pipelined 16 deep, and asserts
// the decided outcomes match: every run satisfies the A.1/A.2/A.3/V.1
// oracle and produces identical balances. The pipelined run must share
// instances — fewer slots than the register writes they decided, and fewer
// consensus messages per write than the depth-1 run — and the depth-1 run
// must show the per-write instance counts (two local proposals per commit)
// of the paper.
func TestCohortParityWithUnbatched(t *testing.T) {
	const (
		requests = 48
		inflight = 16
		accounts = 8
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("co%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(100)})
	}

	run := func(depth, retain int) (map[string]int64, consensus.Stats) {
		cfg := Config{
			Shards: 1,
			Logic:  transferKeyed(),
			Seed:   seed,
			Tuning: deploy.Tuning{Workers: depth, RetainSlots: retain},
		}
		fastKnobs(&cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		balances := runCohortWorkload(t, c, accts, requests, depth)
		mustOracle(t, c)
		return balances, consensusTotals(c, 3)
	}

	plainBal, plainStats := run(1, 0)
	cohortBal, cohortStats := run(inflight, 0)
	// Checkpointed truncation must be invisible to the decided outcomes:
	// the same workload with a small retention tail lands on the same
	// balances (the bounded-memory and catch-up properties have their own
	// suites; parity here is about values, not memory).
	gcBal, gcStats := run(inflight, 1)

	for a, want := range plainBal {
		if got := cohortBal[a]; got != want {
			t.Errorf("balance of %s diverged: depth 1 = %d, depth %d = %d", a, want, inflight, got)
		}
		if got := gcBal[a]; got != want {
			t.Errorf("balance of %s diverged under truncation: depth 1 = %d, depth %d+GC = %d", a, want, inflight, got)
		}
	}
	// Depth-1 parity: one instance per register write — two local
	// proposals per commit (retries under false suspicion can only add
	// more).
	if plainStats.Proposes < 2*requests {
		t.Errorf("depth 1 ran %d proposals for %d requests, want >= %d (2 per commit)",
			plainStats.Proposes, requests, 2*requests)
	}
	// Sharing, measured within the pipelined run: its slot instances (one
	// proposal each) decided more register writes than there were slots.
	// BatchOps counts a register once on every app server that applied it.
	// Per register write decided, a shared instance must cost fewer
	// messages than the depth-1 run's write of its own.
	regOps := cohortStats.BatchOps / 3
	if regOps <= cohortStats.Proposes {
		t.Errorf("pipelining did not share instances: %d slot proposals decided %d register writes",
			cohortStats.Proposes, regOps)
	}
	if cohortStats.Messages*plainStats.Proposes >= plainStats.Messages*regOps {
		t.Errorf("pipelining did not cut consensus messages per write: %d for %d writes vs %d for %d at depth 1",
			cohortStats.Messages, regOps, plainStats.Messages, plainStats.Proposes)
	}
	// RetainSlots=0 is the pre-GC behaviour exactly: no floor movement, no
	// pruning, no checkpoints.
	if plainStats.SlotsPruned != 0 || plainStats.Floor != 0 || plainStats.CheckpointsServed != 0 {
		t.Errorf("depth 1 ran GC machinery: %s", plainStats)
	}
	if cohortStats.SlotsPruned != 0 || cohortStats.Floor != 0 {
		t.Errorf("depth %d without RetainSlots ran GC machinery: %s", inflight, cohortStats)
	}
	t.Logf("depth 1:      %s", plainStats)
	t.Logf("depth %d:     %s", inflight, cohortStats)
	t.Logf("depth %d+gc:  %s", inflight, gcStats)
}

// TestCohortPrimaryCrashMidBatch crashes the primary application server —
// the preferred sequencer and round-1 slot coordinator — while a pipelined
// run is in flight. Every request must still commit exactly once (clients
// fail over, surviving servers re-execute or finish the orphaned tries, and
// cohorts re-route to the next sequencer), money must be conserved, and the
// A.1 oracle must hold over the batched decisions.
func TestCohortPrimaryCrashMidBatch(t *testing.T) {
	const (
		requests = 24
		inflight = 8
		accounts = 6
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("cx%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(1000)})
	}
	cfg := Config{
		Shards: 1,
		Logic:  transferKeyed(),
		Seed:   seed,
		Tuning: deploy.Tuning{Workers: inflight},
	}
	fastKnobs(&cfg)
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
		src := accts[i%accounts]
		dst := accts[(i+1)%accounts]
		req := src + ":" + dst + ":1"
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- fmt.Errorf("issue %s: %w", req, err)
			}
		}()
		if i == requests/3 {
			// Mid-batch: cohorts are in flight on the primary right now.
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
	mustOracle(t, c)
}

// TestPaperExactWritesRideOneSlotEach: on the zero Tuning every register
// write still rides the cohort sequencer, in a slot of its own — the paper's
// one consensus instance per write as a point of the one register path.
// Every instance is a decided slot carrying one write, a commit costs
// exactly two proposals, and the balances and the A.1 oracle hold.
func TestPaperExactWritesRideOneSlotEach(t *testing.T) {
	const requests, accounts = 24, 4
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("pe%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(100)})
	}
	cfg := Config{Shards: 1, Logic: transferKeyed(), Seed: seed}
	fastKnobs(&cfg)
	// A patient client and a slow detector: only the primary writes
	// registers, so no retry or cleaner adds a proposal.
	cfg.ClientBackoff, cfg.ClientRebroadcast = 10*time.Second, 10*time.Second
	cfg.SuspectTimeout = 5 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Every account pays one and receives one per round of transfers.
	for a, bal := range runCohortWorkload(t, c, accts, requests, 1) {
		if bal != 100 {
			t.Errorf("balance of %s = %d, want 100", a, bal)
		}
	}
	mustOracle(t, c)

	total := consensusTotals(c, 3)
	if total.Proposes != 2*requests {
		t.Fatalf("%d proposals for %d commits, want exactly 2.00 per commit", total.Proposes, requests)
	}
	for i := 1; i <= 3; i++ {
		var st consensus.Stats
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if st = c.App(i).ConsensusStats(); st.Applied >= total.Proposes || time.Now().After(deadline) {
				break
			}
		}
		// Each proposal decided a slot of its own, each slot decided one
		// register, and no instance ran for anything but a decided slot.
		if st.Applied != total.Proposes || st.BatchOps != total.Proposes || st.Instances > st.Applied {
			t.Errorf("app %d: %s; want %d slots applied, one register each, and no other instance",
				i, st, total.Proposes)
		}
	}
}

// settle waits until every one of apps application servers has applied
// every slot any of them has, so no decision is still on its way when the
// counters are read.
func settle(t *testing.T, c *Cluster, apps int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		lo, hi := ^uint64(0), uint64(0)
		for i := 1; i <= apps; i++ {
			a := c.App(i).ConsensusStats().Applied
			lo, hi = min(lo, a), max(hi, a)
		}
		if lo == hi {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("application servers stuck at applied slots %d..%d", lo, hi)
		}
	}
}

// TestBatchingPerCommitCounts holds the one batched design to its
// per-commit counts, which need no timing. At depth 1 it is the paper's
// protocol exactly: each commit forces a prepare and an outcome record (two
// device syncs) and writes two registers through one round-1 instance each,
// 6 consensus messages apiece on three application servers. At depth 32 the
// drains, slots and consensus messages are shared across concurrent
// requests, so each count falls below the paper's constant. Keys are
// disjoint self-transfers, so no vote ever parks behind another request's
// and every count is the protocol's own.
func TestBatchingPerCommitCounts(t *testing.T) {
	const requests = 96
	type counts struct {
		syncs int64
		cons  consensus.Stats
	}
	measure := func(t *testing.T, depth int) counts {
		accts := make([]string, 8*depth)
		var seed []kv.Write
		for i := range accts {
			accts[i] = fmt.Sprintf("pc%03d", i)
			seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(100)})
		}
		cfg := Config{
			Shards:       1,
			Logic:        transferKeyed(),
			Seed:         seed,
			ForceLatency: 500 * time.Microsecond,
			Tuning:       deploy.Tuning{Workers: depth},
		}
		fastKnobs(&cfg)
		// A patient client, patient Prepare/Decide resends and a lenient
		// detector: a resent Prepare forces its vote again, and a client
		// retransmission or a false suspicion adds a try, and with it syncs
		// and proposes.
		cfg.ClientBackoff, cfg.ClientRebroadcast = 10*time.Second, 10*time.Second
		cfg.ResendInterval = 10 * time.Second
		cfg.SuspectTimeout = 5 * time.Second
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		store := c.Engine(1).StableStore()
		syncs0, cons0 := store.Syncs(), consensusTotals(c, 3)

		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		sem := make(chan struct{}, depth)
		var wg sync.WaitGroup
		for i := 0; i < requests; i++ {
			a := accts[i%len(accts)]
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := c.Client(1).Issue(ctx, []byte(a+":"+a+":1")); err != nil {
					t.Errorf("issue %s: %v", a, err)
				}
			}()
		}
		wg.Wait()
		mustOracle(t, c)
		settle(t, c, 3)
		cons := consensusTotals(c, 3)
		cons.Proposes -= cons0.Proposes
		cons.FastPath -= cons0.FastPath
		cons.Messages -= cons0.Messages
		return counts{syncs: store.Syncs() - syncs0, cons: cons}
	}
	per := func(n int64) float64 { return float64(n) / requests }

	t.Run("depth=1", func(t *testing.T) {
		got := measure(t, 1)
		t.Logf("%d syncs, %s", got.syncs, got.cons)
		if v := per(got.syncs); v != 2 {
			t.Errorf("paid %.2f syncs/commit, want 2.00 (a forced prepare and outcome each)", v)
		}
		if v := per(int64(got.cons.Proposes)); v != 2 {
			t.Errorf("ran %.2f proposes/commit, want 2.00 (one instance per register write)", v)
		}
		if got.cons.FastPath != got.cons.Proposes {
			t.Errorf("decided %d of %d instances on the round-1 fast path, want all",
				got.cons.FastPath, got.cons.Proposes)
		}
		// 12.0 to the tenth, not to the message: when a coordinator's
		// decision overtakes its own proposal to the slower peer (the two
		// leave from different goroutines' flushes), that peer learns the
		// slot without acking it, one message fewer.
		if v := per(int64(got.cons.Messages)); math.Abs(v-12) >= 0.05 {
			t.Errorf("sent %.3f consensus messages/commit, want 12.0 (3(n-1) per instance)", v)
		}
	})
	t.Run("depth=32", func(t *testing.T) {
		got := measure(t, 32)
		t.Logf("%d syncs, %s", got.syncs, got.cons)
		if v := per(got.syncs); v >= 1 {
			t.Errorf("paid %.2f syncs/commit, want under 1 (the paper pays 2.00)", v)
		}
		if v := per(int64(got.cons.Proposes)); v >= 1 {
			t.Errorf("ran %.2f proposes/commit, want under 1 (the paper runs 2.00)", v)
		}
		if v := per(int64(got.cons.Messages)); v >= 12 {
			t.Errorf("sent %.2f consensus messages/commit, want under 12 (the paper sends 12.0)", v)
		}
	})
}

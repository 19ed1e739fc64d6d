package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"etx/internal/consensus"
	"etx/internal/deploy"
	"etx/internal/kv"
)

// cohortKnobs switches batching — cohort consensus in the wo-register layer
// among it — on top of the usual fast test timings.
func cohortKnobs(cfg *Config) {
	fastKnobs(cfg)
	cfg.AdaptiveWindows = true
}

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
// balances. Identical inputs must produce identical final balances whether
// or not cohort batching is on: every request commits exactly once and the
// adds commute.
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

// TestCohortParityWithUnbatched runs the same pipelined workload with
// batching off ("window 0" below — the paper's one-instance-per-write
// discipline) and on, and asserts the decided outcomes match: both runs
// satisfy the A.1/A.2/A.3/V.1 oracle and produce identical balances. The batched run
// must also share instances — fewer slots than the register writes they
// decided, and fewer consensus messages per write than window 0 — and the
// window-0 run must show the per-write instance counts (two local proposals
// per commit) that define today's behaviour.
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

	run := func(cohort bool, retain int) (map[string]int64, consensus.Stats) {
		cfg := Config{
			Shards: 1,
			Logic:  transferKeyed(),
			Seed:   seed,
			Tuning: deploy.Tuning{Workers: inflight, RetainSlots: retain},
		}
		if cohort {
			cohortKnobs(&cfg)
		} else {
			fastKnobs(&cfg)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		balances := runCohortWorkload(t, c, accts, requests, inflight)
		mustOracle(t, c)
		return balances, consensusTotals(c, 3)
	}

	plainBal, plainStats := run(false, 0)
	cohortBal, cohortStats := run(true, 0)
	// Checkpointed truncation must be invisible to the decided outcomes:
	// the same workload with a small retention tail lands on the same
	// balances (the bounded-memory and catch-up properties have their own
	// suites; parity here is about values, not memory).
	gcBal, gcStats := run(true, 1)

	for a, want := range plainBal {
		if got := cohortBal[a]; got != want {
			t.Errorf("balance of %s diverged: window 0 = %d, cohort = %d", a, want, got)
		}
		if got := gcBal[a]; got != want {
			t.Errorf("balance of %s diverged under truncation: window 0 = %d, cohort+GC = %d", a, want, got)
		}
	}
	// Window 0 parity: the executor runs one instance per register write —
	// two local proposals per commit (retries under false suspicion can only
	// add more).
	if plainStats.Proposes < 2*requests {
		t.Errorf("window 0 ran %d proposals for %d requests, want >= %d (2 per commit)",
			plainStats.Proposes, requests, 2*requests)
	}
	// Sharing, measured within the cohort run: its slot instances (one
	// proposal each) decided more register writes than there were slots.
	// BatchOps counts a register once on every app server that applied it.
	// The window-0 run is no yardstick for the instance count: the writes
	// per commit vary with the run, and without retries each instance costs
	// the same messages in both modes. Per register write decided, though,
	// a shared instance must cost fewer messages than a write of its own.
	regOps := cohortStats.BatchOps / 3
	if regOps <= cohortStats.Proposes {
		t.Errorf("cohort batching did not share instances: %d slot proposals decided %d register writes",
			cohortStats.Proposes, regOps)
	}
	if cohortStats.Messages*plainStats.Proposes >= plainStats.Messages*regOps {
		t.Errorf("cohort batching did not cut consensus messages per write: %d for %d writes vs %d for %d unbatched",
			cohortStats.Messages, regOps, plainStats.Messages, plainStats.Proposes)
	}
	if cohortStats.BatchOps == 0 {
		t.Error("no register ops were decided through batch slots; cohort path never engaged")
	}
	// RetainSlots=0 is the pre-GC behaviour exactly: no floor movement, no
	// pruning, no checkpoints.
	if plainStats.SlotsPruned != 0 || plainStats.Floor != 0 || plainStats.CheckpointsServed != 0 {
		t.Errorf("window 0 ran GC machinery: %s", plainStats)
	}
	if cohortStats.SlotsPruned != 0 || cohortStats.Floor != 0 {
		t.Errorf("cohort without RetainSlots ran GC machinery: %s", cohortStats)
	}
	t.Logf("window 0:  %s", plainStats)
	t.Logf("cohort:    %s", cohortStats)
	t.Logf("cohort+gc: %s", gcStats)
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
	cohortKnobs(&cfg)
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

// TestBatchingPerCommitCounts holds the batching switch to its per-commit
// counts, which need no timing. Batching off is the paper's protocol exactly
// at every depth: each commit forces a prepare and an outcome record (two
// device syncs) and writes two registers through one round-1 instance each.
// Adaptive batching at depth 32 shares syncs, slots and consensus messages
// across concurrent requests. Keys are disjoint self-transfers, so no vote
// ever parks behind another request's and every count is the protocol's own.
func TestBatchingPerCommitCounts(t *testing.T) {
	const requests = 96
	type counts struct {
		syncs int64
		cons  consensus.Stats
	}
	measure := func(t *testing.T, adaptive bool, depth int) counts {
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
		cfg.AdaptiveWindows = adaptive
		// A patient client, patient Prepare/Decide resends and a lenient
		// detector: at depth 32 off, a request can wait longer than
		// fastKnobs' 30 ms resend for the serialized forces ahead of it, and
		// a resent Prepare forces its vote again; a client retransmission or
		// a false suspicion adds a try, and with it syncs and proposes.
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
		cons := consensusTotals(c, 3)
		cons.Proposes -= cons0.Proposes
		cons.FastPath -= cons0.FastPath
		cons.Messages -= cons0.Messages
		return counts{syncs: store.Syncs() - syncs0, cons: cons}
	}
	per := func(n int64) float64 { return float64(n) / requests }

	for _, depth := range []int{1, 32} {
		var off counts
		t.Run(fmt.Sprintf("depth=%d/off", depth), func(t *testing.T) {
			off = measure(t, false, depth)
			t.Logf("%d syncs, %s", off.syncs, off.cons)
			if v := per(off.syncs); v != 2 {
				t.Errorf("off paid %.2f syncs/commit, want 2.00 (a forced prepare and outcome each)", v)
			}
			if v := per(int64(off.cons.Proposes)); v != 2 {
				t.Errorf("off ran %.2f proposes/commit, want 2.00 (one instance per register write)", v)
			}
			if off.cons.FastPath != off.cons.Proposes {
				t.Errorf("off decided %d of %d instances on the round-1 fast path, want all",
					off.cons.FastPath, off.cons.Proposes)
			}
		})
		t.Run(fmt.Sprintf("depth=%d/adaptive", depth), func(t *testing.T) {
			on := measure(t, true, depth)
			t.Logf("%d syncs, %s", on.syncs, on.cons)
			if depth == 1 {
				return // nothing to share one request at a time: the oracle is the claim
			}
			if v := per(on.syncs); v >= 1 {
				t.Errorf("adaptive paid %.2f syncs/commit, want under 1", v)
			}
			if off.cons.Proposes == 0 {
				t.Skip("no off run to compare against")
			}
			if 2*on.cons.Proposes >= off.cons.Proposes {
				t.Errorf("adaptive barely shared instances: %d proposes vs off's %d", on.cons.Proposes, off.cons.Proposes)
			}
			if on.cons.Messages >= off.cons.Messages {
				t.Errorf("adaptive did not cut consensus messages: %d vs off's %d", on.cons.Messages, off.cons.Messages)
			}
		})
	}
}

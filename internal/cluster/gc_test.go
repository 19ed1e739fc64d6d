package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/consensus"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/transport"
)

// gcKnobs is fastKnobs plus batch-log truncation.
func gcKnobs(cfg *Config, retain int) {
	fastKnobs(cfg)
	cfg.RetainSlots = retain
}

// driveTransfers issues `requests` pipelined disjoint transfers through
// client 1 and fails the test on any error.
func driveTransfers(t *testing.T, c *Cluster, accts []string, requests, inflight int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		req := accts[i%len(accts)] + ":" + accts[(i+1)%len(accts)] + ":1"
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
}

// TestCheckpointCatchUpAfterPartition is the GC-safety half of the cohort
// parity suite: a replica partitioned away while the survivors commit far
// enough to truncate the batch log below its application cursor must catch
// up through checkpoint state transfer after the heal — and converge to
// byte-identical register outcomes for every delivered try, while the
// oracle's agreement and validity properties keep holding.
func TestCheckpointCatchUpAfterPartition(t *testing.T) {
	const (
		retain   = 2
		inflight = 8
		accounts = 6
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("gc%02d", i)
		seed = append(seed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(1000)})
	}
	cfg := Config{
		Shards: 1,
		Logic:  transferKeyed(),
		Seed:   seed,
		Tuning: deploy.Tuning{Workers: inflight},
	}
	gcKnobs(&cfg, retain)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Phase 1: everyone healthy.
	driveTransfers(t, c, accts, 12, inflight)

	// Partition the third replica away from the whole world.
	lagged := id.AppServer(3)
	rest := []id.NodeID{id.AppServer(1), id.AppServer(2), id.DBServer(1), id.Client(1)}
	c.Net.Partition([]id.NodeID{lagged}, rest)
	laggedApplied := c.App(3).ConsensusStats().Applied

	// Phase 2: commit until the survivors truncate past the laggard's
	// application cursor — the condition under which decision replay is no
	// longer possible and only checkpoint transfer can help.
	deadline := time.Now().Add(45 * time.Second)
	for c.App(1).ConsensusStats().Floor <= laggedApplied {
		if time.Now().After(deadline) {
			t.Fatalf("survivors never truncated past the laggard (floor=%d, laggard applied=%d)",
				c.App(1).ConsensusStats().Floor, laggedApplied)
		}
		driveTransfers(t, c, accts, 24, inflight)
	}
	if st := c.App(1).ConsensusStats(); st.SlotsPruned == 0 {
		t.Fatalf("floor advanced with no slots pruned: %s", st)
	}

	// Heal and keep committing: the laggard's probes and the survivors'
	// checkpoints must pull it back to the present.
	c.Net.Heal()
	driveTransfers(t, c, accts, 12, inflight)

	deadline = time.Now().Add(30 * time.Second)
	for c.App(3).ConsensusStats().CheckpointsInstalled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("laggard never installed a checkpoint: %s", c.App(3).ConsensusStats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Byte-identical convergence: every delivered try's registers must read
	// the same on all three replicas — including tries decided while the
	// laggard was below the truncation floor.
	for _, d := range c.Client(1).Delivered() {
		ref, ok := c.App(1).Registers().ReadD(d.RID)
		if !ok {
			t.Fatalf("primary lost regD[%s]", d.RID)
		}
		for i := 2; i <= 3; i++ {
			app := c.App(i)
			deadline := time.Now().Add(20 * time.Second)
			for {
				dec, ok := app.Registers().ReadD(d.RID)
				if ok {
					if !reflect.DeepEqual(dec, ref) {
						t.Fatalf("replica %d diverged on regD[%s]: %v vs %v", i, d.RID, dec, ref)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("replica %d never converged on regD[%s]", i, d.RID)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}

	// The laggard's slot map is bounded again (it rejoined the floor).
	lagStats := c.App(3).ConsensusStats()
	if lagStats.Applied <= laggedApplied {
		t.Fatalf("laggard never advanced past its partition-time watermark: %s", lagStats)
	}
	var total int64
	for _, a := range accts {
		bal, err := c.Engine(1).Store().GetInt("acct/" + a)
		if err != nil {
			t.Fatal(err)
		}
		total += bal
	}
	if total != int64(accounts)*1000 {
		t.Errorf("total balance = %d, want %d", total, accounts*1000)
	}
	mustOracle(t, c)
}

// TestBoundedSlotMemorySoak: with truncation on, the decided-slot map of
// every replica stays bounded by the retention tail plus the in-flight
// allowance across thousands of commits — the flat memory curve the GC
// exists for — while the oracle still holds.
func TestBoundedSlotMemorySoak(t *testing.T) {
	const (
		retain   = 8
		inflight = 16
		clients  = 4
		servers  = 3
	)
	requests := 10000
	if testing.Short() {
		requests = 2000
	}
	accts := make([]string, 4*inflight)
	var kvSeed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("bm%04d", i)
		kvSeed = append(kvSeed, kv.Write{Key: "acct/" + accts[i], Val: kv.EncodeInt(1 << 30)})
	}
	c, err := New(Config{
		AppServers:  3,
		DataServers: 1,
		Clients:     clients,
		Net:         transport.Options{Seed: 11},
		Logic:       transferKeyed(),
		Seed:        kvSeed,
		Shards:      1,
		Tuning: deploy.Tuning{
			Workers:           inflight,
			RetainSlots:       retain,
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectTimeout:    time.Second,
		},

		// Failure-free by design: generous timers (and the detector's, in
		// Tuning above) so CPU load cannot fire spurious suspicions mid-soak.
		ResendInterval:    5 * time.Second,
		CleanInterval:     50 * time.Millisecond,
		ClientBackoff:     5 * time.Second,
		ClientRebroadcast: 5 * time.Second,
		ComputeTimeout:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	// The bound the protocol guarantees, in its own terms. A server prunes up
	// to its floor = (the minimum watermark its peers advertised) - retain,
	// so what it holds is the retention tail, the slots it applied above that
	// minimum, and at most one proposal in flight per server:
	//   live <= retain + (applied - (floor + retain)) + servers.
	// And it never prunes what a peer has yet to apply plus the tail:
	//   floor + retain <= every server's applied watermark.
	// How far the advertised minimum trails is a matter of scheduling, not of
	// the protocol, so no wall-clock slack appears here. Floors are read in a
	// first pass and the rest in a second: both watermarks only rise, so each
	// inequality survives the servers moving between the two reads.
	checkBounded := func(when string) {
		var floors [servers]uint64
		for i := range floors {
			floors[i] = c.App(i + 1).ConsensusStats().Floor
		}
		var stats [servers]consensus.Stats
		minApplied := uint64(math.MaxUint64)
		for i := range stats {
			stats[i] = c.App(i + 1).ConsensusStats()
			minApplied = min(minApplied, stats[i].Applied)
		}
		for i, st := range stats {
			if bound := st.Applied - floors[i] + servers; st.LiveSlots > bound {
				t.Errorf("%s: app %d holds %d live slots above floor %d, want <= %d (applied - floor + one in flight per server): %s",
					when, i+1, st.LiveSlots, floors[i], bound, st)
			}
			if floors[i] > 0 && floors[i]+retain > minApplied {
				t.Errorf("%s: app %d pruned to %d, inside the retention tail of a server that applied only %d: %s",
					when, i+1, floors[i], minApplied, st)
			}
		}
	}

	var next atomic.Int64
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for w := 0; w < inflight; w++ {
		cl := c.Client(w%clients + 1)
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(requests) {
					return
				}
				req := accts[(int(i)+w)%len(accts)] + ":" + accts[(int(i)+w+1)%len(accts)] + ":1"
				if _, err := cl.Issue(ctx, []byte(req)); err != nil {
					errs <- err
					return
				}
				done.Add(1)
			}
		}()
	}
	// Sample the gauge while the soak runs: the bound must hold throughout,
	// not just after a final quiesce.
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for done.Load() < int64(requests) {
			select {
			case <-ctx.Done():
				return
			case <-time.After(100 * time.Millisecond):
			}
			checkBounded(fmt.Sprintf("mid-run (%d commits)", done.Load()))
		}
	}()
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	<-sampler

	// Let the final watermarks circulate (they ride the 10ms heartbeats),
	// then the map must sit at the retention tail.
	deadline := time.Now().Add(10 * time.Second)
	for {
		worst := uint64(0)
		for i := 1; i <= 3; i++ {
			if st := c.App(i).ConsensusStats(); st.LiveSlots > worst {
				worst = st.LiveSlots
			}
		}
		if worst <= retain+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot maps never drained to the retention tail (worst %d, want <= %d)", worst, retain+3)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var prunedTotal uint64
	for i := 1; i <= 3; i++ {
		st := c.App(i).ConsensusStats()
		prunedTotal += st.SlotsPruned
		t.Logf("app %d: %s", i, st)
	}
	if prunedTotal == 0 {
		t.Fatal("soak ran with no pruning at all; GC never engaged")
	}
	mustOracle(t, c)
}

// TestRetireAbandonsUndecidedInstances extends the crash coverage: after a
// primary crash mid-batch, retirement must leave no decided register behind
// for any try of the finished requests. Registers have no consensus
// instances of their own; the slots that carried them are the watermark
// protocol's to reclaim.
func TestRetireAbandonsUndecidedInstances(t *testing.T) {
	const (
		requests = 24
		inflight = 8
		accounts = 6
	)
	accts := make([]string, accounts)
	var seed []kv.Write
	for i := range accts {
		accts[i] = fmt.Sprintf("ra%02d", i)
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
		req := accts[i%accounts] + ":" + accts[(i+1)%accounts] + ":1"
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Client(1).Issue(ctx, []byte(req)); err != nil {
				errs <- err
			}
		}()
		if i == requests/3 {
			// Crash the primary mid-batch: register writes in flight on
			// the survivors re-route to the next sequencer.
			c.CrashApp(1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	mustOracle(t, c)

	// Every request is delivered; the client will never retransmit, so
	// retiring every try of every request is safe — and must empty the
	// consensus maps on the survivors. A delivery's Tries is the highest
	// try the client ever started, so it bounds the register keys.
	deliveries := c.Client(1).Delivered()
	if len(deliveries) != requests {
		t.Fatalf("delivered %d results, want %d", len(deliveries), requests)
	}
	for _, d := range deliveries {
		c.Retire(d.RID.Request(), d.Tries)
	}
	for i := 2; i <= 3; i++ {
		app := c.App(i)
		if app == nil {
			t.Fatalf("app %d unexpectedly down", i)
		}
		for _, d := range deliveries {
			for try := uint64(1); try <= d.Tries; try++ {
				rid := id.ResultID{Client: d.RID.Client, Seq: d.RID.Seq, Try: try}
				if _, ok := app.Registers().ReadA(rid); ok {
					t.Errorf("app %d: regA[%s] survived Retire", i, rid)
				}
				if _, ok := app.Registers().ReadD(rid); ok {
					t.Errorf("app %d: regD[%s] survived Retire", i, rid)
				}
			}
		}
		if known := app.Registers().KnownTries(); len(known) != 0 {
			t.Errorf("app %d still knows %d tries after full retirement: %v", i, len(known), known)
		}
	}
}

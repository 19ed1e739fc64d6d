package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/msg"
	"etx/internal/transport"
	"etx/internal/workload"
)

// loadConfig is a closed-loop deployment: three application servers, one
// database, four clients, bank debits over `accounts` (8x the depth, so
// concurrent requests never share a key), a middle tier as wide as the
// pipeline, a zero-latency network, a free log device and protocol timers
// generous enough that nothing fires spuriously in a failure-free run.
func loadConfig(depth int, accounts []string) cluster.Config {
	seed := make(map[string]int64, len(accounts))
	for _, a := range accounts {
		seed[a] = 1 << 40
	}
	return cluster.Config{
		AppServers:  3,
		DataServers: 1,
		Clients:     4,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			return workload.Bank(ctx, tx, req, 0)
		}),
		Seed: workload.BankSeed(seed),
		Tuning: deploy.Tuning{
			Workers:           depth,
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectTimeout:    time.Second,
		},

		ResendInterval:    5 * time.Second,
		CleanInterval:     50 * time.Millisecond,
		ClientBackoff:     5 * time.Second,
		ClientRebroadcast: 5 * time.Second,
		ComputeTimeout:    30 * time.Second,
	}
}

func accountPool(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("a%04d", i)
	}
	return names
}

// loadCounts is what a load's measured interval cost, summed over the tier.
type loadCounts struct {
	requests                                    int
	syncs, proposes, fastPath, messages, pruned uint64
	prepares, decides                           uint64 // wire-tapped at the database tier
	maxLive                                     uint64
}

func (l loadCounts) per(n uint64) float64 { return float64(n) / float64(l.requests) }

func (l loadCounts) String() string {
	return fmt.Sprintf("%d requests: syncs/commit %.2f, proposes/commit %.2f, fast path %d, msgs/commit %.2f, prepares/commit %.2f, decides/commit %.2f, pruned %d, max live slots %d",
		l.requests, l.per(l.syncs), l.per(l.proposes), l.fastPath, l.per(l.messages),
		l.per(l.prepares), l.per(l.decides), l.pruned, l.maxLive)
}

// runLoad builds cfg, warms up one request per client, then issues
// `requests` bank debits from `depth` issuers round-robin over accounts,
// checks the A.1 oracle and returns the counters of the measured interval.
// retire drops each request's register state once it is delivered (the
// Section-5 GC), which needs one client per issuer.
func runLoad(cfg cluster.Config, depth, requests int, accounts []string, retire bool) (loadCounts, error) {
	if retire && cfg.Clients != depth {
		return loadCounts{}, fmt.Errorf("retiring needs one client per issuer (%d clients, depth %d)", cfg.Clients, depth)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return loadCounts{}, err
	}
	defer c.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	issue := func(w, i int, seq uint64) error {
		req := workload.EncodeBank(workload.BankRequest{Account: accounts[i%len(accounts)], Amount: -1})
		if _, err := c.Client(w%cfg.Clients+1).Issue(ctx, req); err != nil {
			return err
		}
		if retire {
			c.Retire(id.RequestKey{Client: id.Client(w%cfg.Clients + 1), Seq: seq}, 2)
		}
		return nil
	}
	for w := 0; w < cfg.Clients; w++ {
		if err := issue(w, requests+w, 1); err != nil {
			return loadCounts{}, fmt.Errorf("warm-up: %w", err)
		}
	}

	var prepares, decides, batches atomic.Uint64
	c.Net.AddSniffer(func(ev transport.SniffEvent) {
		if ev.Dropped || ev.To.Role != id.RoleDBServer {
			return
		}
		switch ev.Payload.Kind() {
		case msg.KindPrepare:
			prepares.Add(1)
		case msg.KindDecide:
			decides.Add(1)
		case msg.KindBatch:
			batches.Add(1)
		}
	})
	read := func() (l loadCounts) {
		for i := range c.AppIDs() {
			st := c.App(i + 1).ConsensusStats()
			l.proposes += st.Proposes
			l.fastPath += st.FastPath
			l.messages += st.Messages
			l.pruned += st.SlotsPruned
			l.maxLive = max(l.maxLive, st.LiveSlots)
		}
		for i := range c.DBIDs() {
			l.syncs += uint64(c.Engine(i + 1).StableStore().Syncs())
		}
		return l
	}
	base := read()

	// The worst replica's live-slot count, sampled through the run.
	var maxLive atomic.Uint64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for tick := time.NewTicker(20 * time.Millisecond); ; {
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
				maxLive.Store(max(maxLive.Load(), read().maxLive))
			}
		}
	}()

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, depth)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(2); ; seq++ {
				i := int(next.Add(1))
				if i > requests {
					return
				}
				if err := issue(w, i, seq); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	close(errs)
	if err := <-errs; err != nil {
		return loadCounts{}, err
	}
	if rep := c.CheckProperties(); !rep.Ok() {
		return loadCounts{}, fmt.Errorf("oracle: %s", rep)
	}
	// Prepares and Decides leave the application tier at once, one per
	// envelope, at every depth: nothing batches them on a timer.
	if n := batches.Load(); n != 0 {
		return loadCounts{}, fmt.Errorf("%d msg.Batch envelopes reached the database tier, want 0", n)
	}
	end := read()
	return loadCounts{
		requests: requests,
		syncs:    end.syncs - base.syncs,
		proposes: end.proposes - base.proposes,
		fastPath: end.fastPath - base.fastPath,
		messages: end.messages - base.messages,
		pruned:   end.pruned - base.pruned,
		prepares: prepares.Load(),
		decides:  decides.Load(),
		maxLive:  max(maxLive.Load(), end.maxLive),
	}, nil
}

// TestSweepsQuick holds, on short closed-loop loads, the per-commit counts
// the protocol owes at each layer: log syncs and consensus instances with
// batching off and adaptive (batch, consensus), the commit fan-out of a
// sharded tier (shards) and the bounded batch log (memory). Every claim is a
// count; none is timed (throughput is benchmark/'s).
func TestSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs closed-loop loads")
	}
	// The batching loads, shared by batch and consensus: off (the paper's
	// protocol) and adaptive at depths 1 and 32, on a 500us log device so
	// group commit has a forced-write cost to share.
	batching := sync.OnceValues(func() (map[string]loadCounts, error) {
		out := make(map[string]loadCounts)
		for _, depth := range []int{1, 32} {
			for _, adaptive := range []bool{false, true} {
				accounts := accountPool(8 * depth)
				cfg := loadConfig(depth, accounts)
				cfg.ForceLatency = 500 * time.Microsecond
				cfg.AdaptiveWindows = adaptive
				l, err := runLoad(cfg, depth, 160, accounts, false)
				if err != nil {
					return nil, fmt.Errorf("adaptive=%v depth %d: %w", adaptive, depth, err)
				}
				out[fmt.Sprintf("%v/%d", adaptive, depth)] = l
			}
		}
		return out, nil
	})
	batchingLoads := func(t *testing.T) (off1, off32, on32 loadCounts) {
		loads, err := batching()
		if err != nil {
			t.Fatal(err)
		}
		for k, l := range loads {
			t.Logf("adaptive/depth %s: %s", k, l)
		}
		return loads["false/1"], loads["false/32"], loads["true/32"]
	}

	t.Run("batch", func(t *testing.T) {
		off1, off32, on32 := batchingLoads(t)
		// Off forces a prepare and an outcome record per request, each its
		// own device sync.
		for _, off := range []loadCounts{off1, off32} {
			if v := off.per(off.syncs); v != 2 {
				t.Errorf("off paid %.2f syncs/commit, want 2.00", v)
			}
		}
		if v := on32.per(on32.syncs); v >= 1 {
			t.Errorf("adaptive at depth 32 paid %.2f syncs/commit, want under 1", v)
		}
	})
	t.Run("consensus", func(t *testing.T) {
		off1, off32, on32 := batchingLoads(t)
		// Off runs one consensus instance per register write.
		for _, off := range []loadCounts{off1, off32} {
			if v := off.per(off.proposes); v != 2 {
				t.Errorf("off ran %.2f instances/commit, want 2.00 (one per register write)", v)
			}
		}
		if 2*on32.proposes >= off32.proposes {
			t.Errorf("adaptive at depth 32 barely shared instances: %d proposes vs off's %d", on32.proposes, off32.proposes)
		}
		if on32.messages >= off32.messages {
			t.Errorf("adaptive at depth 32 did not cut consensus messages: %d vs off's %d", on32.messages, off32.messages)
		}
		for name, l := range map[string]loadCounts{"off": off32, "adaptive": on32} {
			if share := float64(l.fastPath) / float64(l.proposes); share < 0.99 {
				t.Errorf("%s: failure-free runs must ride the round-1 fast path, got %.2f", name, share)
			}
		}
	})
	t.Run("shards", func(t *testing.T) {
		// The routing certificate: a single-shard transaction on an 8-shard
		// tier issues Prepare and Decide to exactly one engine, not eight. A
		// handful of protocol-level resends under scheduler noise is
		// tolerated; a broadcast would put these at 8.0.
		const depth = 24
		model := latcost.Paper(0.02)
		accounts := accountPool(8 * depth)
		cfg := loadConfig(depth, accounts)
		cfg.DataServers, cfg.Shards = 0, 8
		cfg.Net.Latency, cfg.ForceLatency = model.LatencyFunc(), model.DBForce
		l, err := runLoad(cfg, depth, 120, accounts, false)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(l)
		for name, n := range map[string]uint64{"prepares": l.prepares, "decides": l.decides} {
			if v := l.per(n); v > 1.5 {
				t.Errorf("8-shard %s/commit = %.2f, want ~1 (participant set, not broadcast)", name, v)
			}
		}
	})
	t.Run("memory", func(t *testing.T) {
		// Every request is retired; without a retention tail the batch log
		// keeps every decided slot, with one it is pruned and stays bounded.
		const depth = 32
		var loads [2]loadCounts
		for i, retain := range []int{0, 64} {
			accounts := accountPool(8 * depth)
			cfg := loadConfig(depth, accounts)
			cfg.Clients = depth
			cfg.AdaptiveWindows = true
			cfg.RetainSlots = retain
			l, err := runLoad(cfg, depth, 5000, accounts, true)
			if err != nil {
				t.Fatalf("retain %d: %v", retain, err)
			}
			t.Logf("retain %d: %s", retain, l)
			loads[i] = l
		}
		off, on := loads[0], loads[1]
		if off.pruned != 0 || on.pruned == 0 {
			t.Errorf("pruned %d slots with retention off and %d with it on", off.pruned, on.pruned)
		}
		if on.maxLive >= off.maxLive {
			t.Errorf("retention tail did not bound the batch log: max %d slots vs %d without", on.maxLive, off.maxLive)
		}
	})
}

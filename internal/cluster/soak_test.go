package cluster

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/transport"
)

// TestSoakRandomFaults is the long randomized campaign: concurrent clients
// keep transferring while a fault injector crashes the current primary
// (keeping a majority), crashes and recovers the database, partitions and
// heals links — and at the end every invariant must hold and the books must
// balance exactly.
func TestSoakRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		clients   = 3
		perClient = 6
		amount    = 5
		initial   = int64(100000)
	)
	cfg := Config{
		Logic:   transferLogic(),
		Seed:    seedAccounts(initial),
		Clients: clients,
		Net:     transport.Options{Jitter: 300 * time.Microsecond, Seed: 21},
	}
	fastKnobs(&cfg)
	cfg.ComputeTimeout = 10 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	stop := make(chan struct{})
	var injector sync.WaitGroup
	injector.Add(1)
	go func() {
		defer injector.Done()
		rng := rand.New(rand.NewSource(9))
		crashedApps := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(20+rng.Intn(40)) * time.Millisecond):
			}
			switch rng.Intn(4) {
			case 0:
				// Crash an app server, but never lose the majority: with 3
				// servers we may crash exactly one in the whole run.
				if crashedApps == 0 {
					c.CrashApp(1)
					crashedApps++
				}
			case 1:
				c.CrashDB(1)
				time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
				if err := c.RecoverDB(1); err != nil {
					t.Errorf("recover: %v", err)
					return
				}
			case 2:
				// Transient partition of one backup from everyone else.
				app := id.AppServer(2 + rng.Intn(2))
				var rest []id.NodeID
				for _, n := range c.AppIDs() {
					if n != app {
						rest = append(rest, n)
					}
				}
				rest = append(rest, c.DBIDs()...)
				rest = append(rest, id.Client(1), id.Client(2), id.Client(3))
				c.Net.Partition([]id.NodeID{app}, rest)
				time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
				c.Net.Heal()
			case 3:
				// quiet interval
			}
		}
	}()

	var wg sync.WaitGroup
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				_, err := c.Client(cl).Issue(ctx, []byte(strconv.Itoa(amount)))
				cancel()
				if err != nil {
					t.Errorf("client %d request %d: %v", cl, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	injector.Wait()

	// The database may be down at the end of the campaign; bring it back.
	if c.Engine(1) == nil {
		if err := c.RecoverDB(1); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(clients * perClient * amount)
	mustBalances(t, c, 1, initial-total, total)
	mustOracle(t, c)
}

// TestSoakReplicatedKillPrimary is the replicated-tier soak of the failover
// scenario: concurrent clients keep transferring against a factor-3 replica
// group monitored by the real heartbeat detectors (nothing scripted) while
// the primary is killed mid-campaign. Every request must still commit
// exactly once, progress must never stall for longer than a promotion takes,
// exactly one promotion must happen, and the books must balance on the
// promoted primary.
func TestSoakReplicatedKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		clients   = 3
		perClient = 10
		amount    = 2
		initial   = int64(100000)
	)
	cfg := Config{
		Logic:   transferLogic(),
		Seed:    seedAccounts(initial),
		Clients: clients,
		Tuning:  deploy.Tuning{ReplicaFactor: 3},
		Net:     transport.Options{Jitter: 200 * time.Microsecond, Seed: 33},
	}
	fastKnobs(&cfg)
	cfg.ComputeTimeout = 10 * time.Second
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// Completion trace: the longest gap between consecutive commits bounds
	// "throughput never reaches zero" without depending on absolute speed.
	var traceMu sync.Mutex
	var trace []time.Time

	killer := make(chan struct{})
	var killed sync.WaitGroup
	killed.Add(1)
	go func() {
		defer killed.Done()
		select {
		case <-killer:
		case <-time.After(60 * time.Second):
		}
		c.CrashDB(1)
	}()

	var wg sync.WaitGroup
	for cl := 1; cl <= clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if cl == 1 && i == perClient/2 {
					close(killer) // kill the primary mid-load, exactly once
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				_, err := c.Client(cl).Issue(ctx, []byte(strconv.Itoa(amount)))
				cancel()
				if err != nil {
					t.Errorf("client %d request %d: %v", cl, i, err)
					return
				}
				traceMu.Lock()
				trace = append(trace, time.Now())
				traceMu.Unlock()
			}
		}()
	}
	wg.Wait()
	killed.Wait()
	if t.Failed() {
		return
	}

	promos, lats := c.Promotions()
	if promos != 1 {
		t.Fatalf("promotions = %d (latencies %v), want exactly 1", promos, lats)
	}
	var worst time.Duration
	for i := 1; i < len(trace); i++ {
		if gap := trace[i].Sub(trace[i-1]); gap > worst {
			worst = gap
		}
	}
	// A promotion costs roughly suspicion + drain; anything near the request
	// deadline means throughput actually hit zero for the duration.
	if worst > 20*time.Second {
		t.Fatalf("commit stream stalled for %v", worst)
	}
	t.Logf("promotion latency %v, worst commit gap %v over %d commits", lats[0], worst, len(trace))

	cur := c.View().Current(id.DBServer(1))
	total := int64(clients * perClient * amount)
	mustBalances(t, c, cur.Index, initial-total, total)
	mustOracle(t, c)
}

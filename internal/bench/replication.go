package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/placement"
)

// DataTierFailover reports the replicated-data-tier scenario of the failover
// experiment: a sharded deployment with ReplicaFactor-sized replica groups
// runs under pipelined load, one shard primary is killed mid-run, and the
// heartbeat detector drives a backup promotion while the other shards keep
// committing. The interesting numbers are the throughput floor (the worst
// completion window — the dip during the promotion, which must stay above
// zero) and the drain-to-takeover promotion latency.
type DataTierFailover struct {
	// Deployment shape.
	Shards   int
	Replicas int
	Clients  int
	Depth    int // aggregate in-flight request depth
	// Run length and volume.
	Duration time.Duration
	Requests int
	// Throughput is the overall commit rate (requests/second).
	Throughput float64
	// Window is the completion-counting window; MinWindow/MaxWindow are the
	// worst and best windows and ZeroWindows counts empty ones (a healthy
	// failover has none: the surviving shards commit right through the
	// promotion).
	Window      time.Duration
	MinWindow   int
	MaxWindow   int
	ZeroWindows int
	// Promotions counts primary take-overs (exactly 1: the killed shard's
	// first backup); PromotionLatency is its drain-to-takeover time.
	Promotions       int
	PromotionLatency time.Duration
	// StaleRejects counts messages from the deposed primary the application
	// servers rejected by epoch.
	StaleRejects uint64
}

// dataTierConfig shapes the kill-primary run.
type dataTierConfig struct {
	shards   int
	replicas int
	clients  int
	perGoros int // issuing goroutines per client
	duration time.Duration
	window   time.Duration
	suspect  time.Duration
}

func dataTierShape(quick bool) dataTierConfig {
	cfg := dataTierConfig{
		shards:   2,
		replicas: 3,
		clients:  4,
		perGoros: 8, // 4 clients x 8 goroutines = depth 32
		duration: 4 * time.Second,
		window:   200 * time.Millisecond,
		// The suspicion timeout must tolerate scheduling under depth-32
		// load on a saturated box — too tight and a live primary's beacons
		// arrive late enough to trigger false promotions across shards.
		suspect: 150 * time.Millisecond,
	}
	if quick {
		cfg.duration = 1500 * time.Millisecond
		cfg.replicas = 2
		cfg.suspect = 100 * time.Millisecond
	}
	return cfg
}

// runDataTierFailover builds a replicated sharded cluster, drives pipelined
// transfer load, kills the shard-0 primary a third of the way in, and lets
// the group's own heartbeat detector (no scripted suspicion) discover the
// crash and promote the backup.
func runDataTierFailover(quick bool) (*DataTierFailover, error) {
	shape := dataTierShape(quick)
	S := shape.shards

	// Two accounts per shard, found by probing the hash placement with
	// candidate names; every request transfers 1 between its shard's pair,
	// so the A.1 conservation oracle has teeth and every transaction stays
	// on the one-shard fast path.
	policy := placement.Hash(S)
	type pair struct{ src, dst string }
	pairs := make([]pair, S)
	filled := 0
	for i := 0; filled < S; i++ {
		key := fmt.Sprintf("acct/p%d", i)
		s := policy.ShardFor(key)
		switch {
		case pairs[s].src == "":
			pairs[s].src = key
		case pairs[s].dst == "":
			pairs[s].dst = key
			filled++
		}
	}
	seed := make([]kv.Write, 0, 2*S)
	for _, p := range pairs {
		seed = append(seed, kv.Write{Key: p.src, Val: kv.EncodeInt(1000)})
		seed = append(seed, kv.Write{Key: p.dst, Val: kv.EncodeInt(1000)})
	}

	c, err := cluster.New(cluster.Config{
		AppServers:  3,
		DataServers: S,
		Shards:      S,
		Tuning: deploy.Tuning{
			ReplicaFactor:     shape.replicas,
			Workers:           4,
			HeartbeatInterval: shape.suspect / 8,
			SuspectTimeout:    shape.suspect,
		},
		Clients: shape.clients,
		Seed:    seed,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			src, dst, ok := strings.Cut(string(req), ">")
			if !ok {
				return nil, fmt.Errorf("bad request %q", req)
			}
			if rep, err := tx.Do(ctx, src, msg.Op{Code: msg.OpAdd, Delta: -1}); err != nil {
				return nil, err
			} else if !rep.OK {
				return nil, fmt.Errorf("debit %s: %s", src, rep.Err)
			}
			if rep, err := tx.Do(ctx, dst, msg.Op{Code: msg.OpAdd, Delta: 1}); err != nil {
				return nil, err
			} else if !rep.OK {
				return nil, fmt.Errorf("credit %s: %s", dst, rep.Err)
			}
			return []byte("ok"), nil
		}),
	})
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var doneMu sync.Mutex
	var doneAt []time.Duration
	start := time.Now()
	stopIssuing := start.Add(shape.duration)
	killAt := shape.duration / 3

	var wg sync.WaitGroup
	issueErr := make(chan error, shape.clients*shape.perGoros)
	for cl := 1; cl <= shape.clients; cl++ {
		client := c.Client(cl)
		for g := 0; g < shape.perGoros; g++ {
			wg.Add(1)
			p := pairs[(cl+g)%S]
			req := []byte(p.src + ">" + p.dst)
			go func() {
				defer wg.Done()
				for time.Now().Before(stopIssuing) {
					if _, err := client.Issue(ctx, req); err != nil {
						issueErr <- err
						return
					}
					doneMu.Lock()
					doneAt = append(doneAt, time.Since(start))
					doneMu.Unlock()
				}
			}()
		}
	}

	// Kill the shard-0 primary mid-run; the group's heartbeat detector, not
	// a scripted one, must notice and promote.
	time.Sleep(killAt)
	c.CrashDB(1)
	wg.Wait()
	close(issueErr)
	if err := <-issueErr; err != nil {
		return nil, fmt.Errorf("issue under failover: %w", err)
	}
	elapsed := time.Since(start)
	if rep := c.CheckProperties(); !rep.Ok() {
		return nil, errf("oracle after failover: %s", rep)
	}

	out := &DataTierFailover{
		Shards:   S,
		Replicas: shape.replicas,
		Clients:  shape.clients,
		Depth:    shape.clients * shape.perGoros,
		Duration: elapsed,
		Requests: len(doneAt),
		Window:   shape.window,
	}
	if elapsed > 0 {
		out.Throughput = float64(len(doneAt)) / elapsed.Seconds()
	}
	nw := int(elapsed/shape.window) + 1
	windows := make([]int, nw)
	for _, d := range doneAt {
		windows[int(d/shape.window)]++
	}
	out.MinWindow = -1
	for _, n := range windows {
		if n == 0 {
			out.ZeroWindows++
		}
		if out.MinWindow < 0 || n < out.MinWindow {
			out.MinWindow = n
		}
		if n > out.MaxWindow {
			out.MaxWindow = n
		}
	}
	promos, lats := c.Promotions()
	out.Promotions = promos
	if len(lats) > 0 {
		out.PromotionLatency = lats[0]
	}
	out.StaleRejects = c.StaleRejects()
	if promos != 1 {
		return nil, errf("expected exactly one promotion, saw %d", promos)
	}
	return out, nil
}

// String renders the data-tier section of the failover report.
func (d *DataTierFailover) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Data-tier failover: kill 1 of %d shard primaries (replica factor %d) under depth-%d load\n",
		d.Shards, d.Replicas, d.Depth)
	fmt.Fprintf(&b, "  %d requests in %v (%.0f req/s)\n", d.Requests, d.Duration.Round(time.Millisecond), d.Throughput)
	fmt.Fprintf(&b, "  completions per %v window: min %d, max %d, zero windows %d\n",
		d.Window, d.MinWindow, d.MaxWindow, d.ZeroWindows)
	fmt.Fprintf(&b, "  promotions %d, drain-to-takeover latency %v, stale-epoch rejections %d\n",
		d.Promotions, d.PromotionLatency, d.StaleRejects)
	return b.String()
}

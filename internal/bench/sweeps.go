package bench

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/msg"
	"etx/internal/placement"
	"etx/internal/transport"
	"etx/internal/workload"
)

// size is how much of a sweep runs.
type size struct {
	scale    float64 // latcost.Paper multiplier, for the sweeps on the paper's cost model
	requests int     // per cell
	depths   []int   // pipelining depths swept
}

// sweep is one table entry: every closed-loop experiment is a name, the
// cells it generates and what its rows must satisfy.
type sweep struct {
	name, title string
	params      []string // see Report.Params
	metrics     []string // see Report.Metrics
	full, quick size
	// runs is the best-of count of a full run, for the CPU-bound sweeps
	// where a stray GC cycle otherwise dominates cell-to-cell comparisons.
	runs int
	// cells generates the cells of one swept depth.
	cells func(scale float64, depth, requests int) []cell
	// check is the sweep's counter-verified claim, a hard error on any run.
	check func(Row) error
	note  string
}

// options are etxbench's flags; zero scale, requests and depth keep the
// sweep's own size.
type options struct {
	quick    bool
	net      string // latcost profile replacing every cell's network: "", "lan", "wan"
	scale    float64
	requests int
	depth    int
}

// Sweeps lists the closed-loop experiments by name and title.
func Sweeps() [][2]string {
	var out [][2]string
	for _, s := range sweeps {
		out = append(out, [2]string{s.name, s.title})
	}
	return out
}

// RunSweep runs the named sweep. quick shrinks it to a CI smoke run, net
// ("lan" or "wan") replaces every cell's network with that latcost profile,
// and a nonzero scale, requests or depth overrides the sweep's own size
// (depth d sweeps {1, d}, or d alone where the sweep has a single depth).
func RunSweep(name string, quick bool, net string, scale float64, requests, depth int) (*Report, error) {
	for _, s := range sweeps {
		if s.name == name {
			return s.run(options{quick, net, scale, requests, depth})
		}
	}
	return nil, errf("unknown sweep %q", name)
}

func (s sweep) run(o options) (*Report, error) {
	z, runs := s.full, max(1, s.runs)
	if o.quick {
		z, runs = s.quick, 1
	}
	if o.scale > 0 {
		z.scale = o.scale
	}
	if o.requests > 0 {
		z.requests = o.requests
	}
	if o.depth > 1 && len(z.depths) > 1 {
		z.depths = []int{1, o.depth}
	} else if o.depth > 0 {
		z.depths = []int{o.depth}
	}
	netOpts, err := latcost.Profile(o.net)
	if err != nil {
		return nil, err
	}
	rep := &Report{Exp: s.name, Title: s.title, Params: s.params, Metrics: s.metrics, Note: s.note}
	if z.scale > 0 {
		rep.Title += fmt.Sprintf("; paper cost model at scale %.3f", z.scale)
	}
	if o.net != "" {
		rep.Title += "; " + o.net + " network"
	}
	var cells []cell
	for _, depth := range z.depths {
		cells = append(cells, s.cells(z.scale, depth, z.requests)...)
	}
	for _, c := range cells {
		if o.net != "" {
			c.config.Net = netOpts
		}
		var best Row
		for r := 0; r < runs; r++ {
			row, err := run(c)
			if err == nil && s.check != nil {
				err = s.check(row)
			}
			if err != nil {
				return nil, errf("%s %v depth %d: %w", s.name, c.params, c.depth, err)
			}
			if row.CommitsPerS > best.CommitsPerS {
				best = row
			}
		}
		rep.Rows = append(rep.Rows, best)
	}
	return rep, nil
}

// deployment is the configuration every cell starts from: three application
// servers, one database, four clients, the bank logic over `accounts`, a
// middle tier as wide as the pipeline so it is never the artificial
// bottleneck, a zero-latency network, a free log device, and protocol timers
// generous enough that nothing fires spuriously in a failure-free run.
func deployment(depth int, accounts []string, sqlWork time.Duration) cluster.Config {
	seed := make(map[string]int64, len(accounts))
	for _, a := range accounts {
		seed[a] = 1 << 40
	}
	return cluster.Config{
		AppServers:  3,
		DataServers: 1,
		Clients:     4,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			return workload.Bank(ctx, tx, req, sqlWork)
		}),
		Seed: workload.BankSeed(seed),
		Tuning: deploy.Tuning{
			Workers:           depth,
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectTimeout:    time.Second,
		},
		Terminators: depth,

		ResendInterval:    5 * time.Second,
		CleanInterval:     50 * time.Millisecond,
		ClientBackoff:     5 * time.Second,
		ClientRebroadcast: 5 * time.Second,
		ComputeTimeout:    30 * time.Second,
	}
}

// paperDeployment is deployment on the paper's calibrated cost model: its
// per-tier message latencies and forced-write cost, and its simulated SQL
// time when sql is set (the commit path alone is measured otherwise).
func paperDeployment(model latcost.Model, depth int, accounts []string, sql bool) cluster.Config {
	var sqlWork time.Duration
	if sql {
		sqlWork = model.SQLWork
	}
	cfg := deployment(depth, accounts, sqlWork)
	cfg.Net.Latency = model.LatencyFunc()
	cfg.ForceLatency = model.DBForce
	return cfg
}

// pool names n accounts. Pools are 8x the depth and drawn round-robin, so
// concurrent requests never contend on a key unless the sweep skews them.
func pool(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("a%04d", i)
	}
	return names
}

func roundRobin(accounts []string) func(int) string {
	return func(i int) string { return accounts[i%len(accounts)] }
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// cohortWindow is the sequencer window of the cohort-consensus cells. Under
// load it is immaterial (a cohort stays open for the whole in-flight slot
// ahead of it); idle, it is the price of admission for sharing.
const cohortWindow = 100 * time.Microsecond

// memoryRetain is the retention tail of the memory sweep's GC-on row.
const memoryRetain = 64

var sweeps = []sweep{
	{
		name:   "pipeline",
		title:  "Pipelined client: one client x K in flight vs K clients x 1 (3 app servers, 1 shard)",
		params: []string{"clients", "depth"},
		full:   size{0.05, 64, []int{16}},
		quick:  size{0.02, 32, []int{8}},
		cells: func(scale float64, k, requests int) (out []cell) {
			for _, shape := range [][2]int{{1, 1}, {1, k}, {k, k}} {
				clients, depth := shape[0], shape[1]
				accounts := pool(8 * depth)
				cfg := paperDeployment(latcost.Paper(scale), depth, accounts, true)
				cfg.Clients = clients
				out = append(out, cell{
					params: map[string]string{"clients": fmt.Sprint(clients)},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
				})
			}
			return out
		},
		note: "one pipelined client rides a single connection and sequence-number space yet keeps\n" +
			" the middle tier as busy as the same number of independent clients",
	},
	{
		name:   "scaling",
		title:  "Latency vs deployment size: app servers x unsharded databases, one request at a time",
		params: []string{"depth", "deployment"},
		full:   size{0.05, 30, []int{1}},
		quick:  size{0.02, 5, []int{1}},
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, shape := range [][2]int{{3, 1}, {5, 1}, {7, 1}, {3, 2}, {3, 3}} {
				accounts := pool(8 * depth)
				cfg := paperDeployment(latcost.Paper(scale), depth, accounts, true)
				cfg.AppServers, cfg.DataServers, cfg.Clients = shape[0], shape[1], 1
				out = append(out, cell{
					params: map[string]string{"deployment": fmt.Sprintf("%dx%d", shape[0], shape[1])},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
				})
			}
			return out
		},
		note: "the register writes need one majority round trip regardless of replica count",
	},
	{
		name:    "shards",
		title:   "Shard scaling: 1/2/4/8 key-sharded databases, uniform keys vs keys all homed on shard 0",
		params:  []string{"depth", "keys", "shards"},
		metrics: []string{"core.prepares_per_commit", "core.decides_per_commit"},
		full:    size{0.05, 360, []int{32}},
		quick:   size{0.02, 120, []int{24}},
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, n := range []int{1, 2, 4, 8} {
				skewed, _ := placement.KeyedNames(placement.Hash(n), 0, "h",
					func(name string) string { return "acct/" + name }, 8*depth)
				for _, keys := range []string{"uniform", "skewed"} {
					accounts := pool(8 * depth)
					if keys == "skewed" {
						accounts = skewed
					}
					cfg := paperDeployment(latcost.Paper(scale), depth, accounts, false)
					cfg.DataServers, cfg.Shards = 0, n
					out = append(out, cell{
						params: map[string]string{"keys": keys, "shards": fmt.Sprint(n)},
						config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
						probe: commitFanOut,
					})
				}
			}
			return out
		},
		note: "commitment runs against the participant set: prepares/commit stays at 1 as shards are added,\n" +
			" uniform throughput scales with the tier, skewed keys pin it to one shard's forced-log capacity",
	},
	{
		name:    "batch",
		title:   "Group commit: BatchWindow 0 vs fsync/8 on one shard",
		params:  []string{"depth", "batching"},
		metrics: []string{"stablestore.syncs_per_commit", "stablestore.forces_per_commit", "stablestore.forced_per_sync"},
		full:    size{0.05, 320, []int{1, 8, 32}},
		quick:   size{0.02, 160, []int{1, 32}},
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, on := range []bool{false, true} {
				accounts := pool(8 * depth)
				cfg := paperDeployment(latcost.Paper(scale), depth, accounts, false)
				if on {
					// The window only matters on an idle device: under load
					// the cohort stays open while the previous fsync is in
					// flight, so a small fraction of the fsync cost suffices.
					cfg.BatchWindow = cfg.ForceLatency / 8
				}
				out = append(out, cell{
					params: map[string]string{"batching": onOff(on)},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
				})
			}
			return out
		},
		note: "without batching every commit pays two serialized fsyncs, prepare and commit, so pipelining cannot\n" +
			" raise throughput past the log device; with the combiner one fsync covers a whole cohort",
	},
	{
		name:    "consensus",
		title:   "Cohort consensus: CohortWindow 0 vs 100us (3 app servers, 1 shard, zero-cost net and log: CPU-bound)",
		params:  []string{"depth", "cohort"},
		metrics: []string{"consensus.msgs_per_commit", "consensus.proposes_per_commit", "consensus.fastpath_share"},
		full:    size{0, 2400, []int{1, 8, 16, 32, 64}},
		quick:   size{0, 400, []int{1, 16}},
		runs:    2,
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, on := range []bool{false, true} {
				accounts := pool(8 * depth)
				cfg := deployment(depth, accounts, 0)
				// Windowless mailbox-drain batching at the database, for
				// both rows: the sweep isolates the middle tier.
				cfg.DrainBatch = 64
				if on {
					cfg.CohortWindow = cohortWindow
				}
				out = append(out, cell{
					params: map[string]string{"cohort": onOff(on)},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
				})
			}
			return out
		},
		note: "window 0 runs one consensus instance per register write, two per commit, exactly as the paper\n" +
			" prescribes; a sequencer folds concurrent regA/regD writes into shared batch slots, so instances and\n" +
			" messages per commit fall by the cohort size; at depth 1 the window only adds latency",
	},
	{
		name:   "memory",
		title:  "Bounded batch-log memory: RetainSlots 0 vs 64 (cohort consensus on, every request retired)",
		params: []string{"depth", "retain"},
		metrics: []string{"consensus.live_slots_q1", "consensus.live_slots_q2", "consensus.live_slots_q3",
			"consensus.live_slots_q4", "consensus.live_slots_max", "consensus.live_slots",
			"consensus.slots_pruned", "proc.heap_delta_kb"},
		full:  size{0, 100000, []int{32}},
		quick: size{0, 5000, []int{32}},
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, retain := range []int{0, memoryRetain} {
				accounts := pool(8 * depth)
				cfg := deployment(depth, accounts, 0)
				cfg.Clients = depth
				cfg.DrainBatch = 64
				cfg.CohortWindow = cohortWindow
				cfg.RetainSlots = retain
				out = append(out, cell{
					params: map[string]string{"retain": fmt.Sprint(retain)},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
					retire: true, probe: slotCurve,
				})
			}
			return out
		},
		note: "live_slots_q1..q4 are the worst replica's decided-slot count at each quarter of the run: linear with\n" +
			" retention off (the paper's deferred Section-5 leak, relocated to the batch log), flat with a retention tail",
	},
	{
		name:   "wire",
		title:  "Batching windows: static 0 / 100us / 2ms vs adaptive (1 shard, zero-latency net, 500us force)",
		params: []string{"depth", "policy"},
		full:   size{0, 500, []int{1, 32, 64}},
		quick:  size{0, 160, []int{1, 32}},
		runs:   2,
		cells: func(scale float64, depth, requests int) (out []cell) {
			for _, pol := range []struct {
				name     string
				window   time.Duration
				adaptive bool
			}{
				{"static-0", 0, false},
				{"static-100us", 100 * time.Microsecond, false},
				{"static-2ms", 2 * time.Millisecond, false},
				{"adaptive", 0, true},
			} {
				accounts := pool(8 * depth)
				cfg := deployment(depth, accounts, 0)
				// The batch window exists to share the forced-write cost;
				// a free log would hide the trade the sweep measures.
				cfg.ForceLatency = 500 * time.Microsecond
				cfg.DrainBatch = 64
				cfg.BatchWindow, cfg.CohortWindow, cfg.AdaptiveWindows = pol.window, pol.window, pol.adaptive
				out = append(out, cell{
					params: map[string]string{"policy": pol.name},
					config: cfg, depth: depth, requests: requests, account: roundRobin(accounts),
				})
			}
			return out
		},
		note: "no static window wins both ends: window 0 loses throughput at depth, a wide window pays its full\n" +
			" width at depth 1; adaptive collapses its caps at depth 1 and widens them under pipelining",
	},
}

// commitFanOut counts, on the wire, the Prepares and Decides sent to the
// database tier per commit: the participant-routing certificate (1.0 means a
// single-shard commit touched one engine regardless of tier size).
func commitFanOut(c *cluster.Cluster) func(*Row) {
	var prepares, decides atomic.Int64
	c.Net.AddSniffer(func(ev transport.SniffEvent) {
		if ev.Dropped || ev.To.Role != id.RoleDBServer {
			return
		}
		//etxlint:allow kindswitch — wire-tap counter for the two commit fan-out kinds this sweep measures
		switch ev.Payload.Kind() {
		case msg.KindPrepare:
			prepares.Add(1)
		case msg.KindDecide:
			decides.Add(1)
		}
	})
	return func(row *Row) {
		row.PerCommit["core.prepares_per_commit"] = float64(prepares.Load()) / float64(row.Requests)
		row.PerCommit["core.decides_per_commit"] = float64(decides.Load()) / float64(row.Requests)
	}
}

// slotCurve samples the worst replica's live-slot count every 20 ms of the
// measured interval and reports its level at each quarter of the run and its
// maximum: the memory trajectory in five points.
func slotCurve(c *cluster.Cluster) func(*Row) {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				samples = append(samples, liveSlots(c))
			}
		}
	}()
	return func(row *Row) {
		close(stop)
		<-done
		samples = append(samples, liveSlots(c))
		for q := 1; q <= 4; q++ {
			row.Gauges[fmt.Sprintf("consensus.live_slots_q%d", q)] = samples[max(0, q*len(samples)/4-1)]
		}
		row.Gauges["consensus.live_slots_max"] = slices.Max(samples)
		// Let the final watermarks ride a few heartbeats before the driver
		// reads the settled slot count and heap.
		time.Sleep(100 * time.Millisecond)
	}
}

package bench

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/cluster"
	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/workload"
)

// Row is the result of one closed-loop cell, the same for every sweep.
// PerCommit and Gauges use BENCHMARK.json's names where the quantity is the
// same (consensus.proposes_per_commit, stablestore.syncs_per_commit, ...).
type Row struct {
	// Params are the cell's labels; "depth" is not among them, it is Depth.
	Params      map[string]string `json:"params"`
	Depth       int               `json:"depth"` // concurrent issuers
	Requests    int               `json:"requests"`
	CommitsPerS float64           `json:"commits_per_s"`
	P50Ms       float64           `json:"commit_p50_ms"`
	P99Ms       float64           `json:"commit_p99_ms"`
	// PerCommit holds every counter the layers publish, as a rate per
	// committed request over the measured interval.
	PerCommit map[string]float64 `json:"per_commit"`
	// Gauges holds ratios, levels and totals that are not per-commit rates.
	Gauges map[string]float64 `json:"gauges"`
}

// Label returns the row's value of a label column ("depth" included).
func (r Row) Label(name string) string {
	if name == "depth" {
		return strconv.Itoa(r.Depth)
	}
	return r.Params[name]
}

// Metric returns a per-commit rate or gauge by name (0 when absent).
func (r Row) Metric(name string) float64 {
	if v, ok := r.PerCommit[name]; ok {
		return v
	}
	return r.Gauges[name]
}

// Report is one sweep's table.
type Report struct {
	Exp   string `json:"exp"`
	Title string `json:"title"`
	// Params are the label columns in print order. The last one is the knob
	// under comparison: rows that agree on all the others form a group, and
	// each row's speed-up is against the first row of its group.
	Params []string `json:"params"`
	// Metrics are the per-commit and gauge columns the table prints (the
	// rows carry all of them regardless).
	Metrics []string `json:"metrics"`
	Rows    []Row    `json:"rows"`
	Note    string   `json:"note,omitempty"`
}

// Find returns the row whose labels match the given name, value pairs
// ("depth", "32", "mode", "queue"), or nil.
func (r *Report) Find(labels ...string) *Row {
next:
	for i := range r.Rows {
		for j := 0; j+1 < len(labels); j += 2 {
			if r.Rows[i].Label(labels[j]) != labels[j+1] {
				continue next
			}
		}
		return &r.Rows[i]
	}
	return nil
}

// baseline returns the first row of row's comparison group.
func (r *Report) baseline(row *Row) *Row {
	var labels []string
	for _, p := range r.Params[:len(r.Params)-1] {
		labels = append(labels, p, row.Label(p))
	}
	return r.Find(labels...)
}

// String renders the table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	for _, p := range r.Params {
		fmt.Fprintf(&b, "%-13s ", p)
	}
	fmt.Fprintf(&b, "%9s %11s %9s %9s", "requests", "commits/s", "p50 (ms)", "p99 (ms)")
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, " %*s", metricWidth(m), heading(m))
	}
	b.WriteString("\n")
	for i := range r.Rows {
		row := &r.Rows[i]
		for _, p := range r.Params {
			fmt.Fprintf(&b, "%-13s ", row.Label(p))
		}
		fmt.Fprintf(&b, "%9d %11.1f %9.2f %9.2f", row.Requests, row.CommitsPerS, row.P50Ms, row.P99Ms)
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, " %*.2f", metricWidth(m), row.Metric(m))
		}
		if base := r.baseline(row); base != row && base.CommitsPerS > 0 {
			fmt.Fprintf(&b, " (%.2fx)", row.CommitsPerS/base.CommitsPerS)
		}
		b.WriteString("\n")
	}
	if r.Note != "" {
		fmt.Fprintf(&b, "(%s)\n", r.Note)
	}
	return b.String()
}

// heading abbreviates a metric name to a column heading:
// "stablestore.syncs_per_commit" prints as "syncs/commit".
func heading(metric string) string {
	_, name, _ := strings.Cut(metric, ".")
	return strings.Replace(name, "_per_", "/", 1)
}

func metricWidth(metric string) int { return max(10, len(heading(metric))) }

// cell is one closed-loop measurement: a deployment, a seeded request stream
// and a pipelining depth.
type cell struct {
	params map[string]string
	// config is built verbatim; the swept knob is a field set on it.
	config cluster.Config
	// depth issuers share the stream, spread round-robin over the
	// config.Clients client processes.
	depth    int
	requests int
	// account names the bank account request i (1-based) debits; requests
	// past `requests` are the warm-up.
	account func(i int) string
	// retire drops each request's register state once it is delivered (the
	// Section-5 GC); it needs one client per issuer, because a request's key
	// is its issuer's own sequence number.
	retire bool
	// probe, if set, starts after the warm-up and returns a function that
	// runs after the measured interval to add what it observed to the row.
	probe func(*cluster.Cluster) func(*Row)
}

// cellDeadline bounds one cell; a failure-free cell finishes in seconds.
const cellDeadline = 10 * time.Minute

// run drives one cell: build, warm up, issue `requests` requests from
// `depth` issuers, check the A.1 oracle, and diff the layers' counters.
func run(c cell) (Row, error) {
	clients := c.config.Clients
	if c.retire && clients != c.depth {
		return Row{}, errf("a retiring cell needs one client per issuer (%d clients, depth %d)", clients, c.depth)
	}
	cl, err := cluster.New(c.config)
	if err != nil {
		return Row{}, err
	}
	defer cl.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), cellDeadline)
	defer cancel()

	// issue sends request i of the stream through issuer w's client; retire
	// drops it as that client's seq-th request.
	issue := func(w, i int) error {
		req := workload.EncodeBank(workload.BankRequest{Account: c.account(i), Amount: -1})
		_, err := cl.Client(w%clients+1).Issue(ctx, req)
		return err
	}
	retire := func(w int, seq uint64) {
		if c.retire {
			cl.Retire(id.RequestKey{Client: id.Client(w%clients + 1), Seq: seq}, 2)
		}
	}
	// Warm-up: one request per client, outside the timer and the counters.
	for w := 0; w < clients; w++ {
		if err := issue(w, c.requests+1+w); err != nil {
			return Row{}, fmt.Errorf("warm-up: %w", err)
		}
		retire(w, 1)
	}
	heap0 := liveHeap()
	var finish func(*Row)
	if c.probe != nil {
		finish = c.probe(cl)
	}
	base := snapshot(cl)
	lat := metrics.NewSample()

	// The one closed loop: every issuer pulls the next request index from a
	// shared counter, so a cell issues exactly `requests` requests at exactly
	// `depth` in flight.
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, c.depth)
	t0 := time.Now()
	for w := 0; w < c.depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(2); ; seq++ {
				i := int(next.Add(1))
				if i > c.requests {
					return
				}
				s0 := time.Now()
				if err := issue(w, i); err != nil {
					errs <- err
					return
				}
				lat.AddDuration(time.Since(s0))
				retire(w, seq)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errs)
	if err := <-errs; err != nil {
		return Row{}, err
	}
	if rep := cl.CheckProperties(); !rep.Ok() {
		return Row{}, errf("oracle: %s", rep)
	}

	d := snapshot(cl)
	for k := range d {
		d[k] -= base[k]
	}
	n := float64(c.requests)
	row := Row{
		Params:      c.params,
		Depth:       c.depth,
		Requests:    c.requests,
		CommitsPerS: n / elapsed.Seconds(),
		P50Ms:       lat.Percentile(50),
		P99Ms:       lat.Percentile(99),
		PerCommit: map[string]float64{
			"consensus.proposes_per_commit":  d["consensus.proposes"] / n,
			"consensus.msgs_per_commit":      d["consensus.msgs"] / n,
			"stablestore.syncs_per_commit":   d["stablestore.syncs"] / n,
			"stablestore.forces_per_commit":  d["stablestore.forces"] / n,
			"lockmgr.acquires_per_commit":    d["lockmgr.acquires"] / n,
			"lockmgr.wait_ms_per_commit":     d["lockmgr.wait_ms"] / n,
			"xadb.spec_execs_per_commit":     d["xadb.spec_execs"] / n,
			"xadb.deferred_votes_per_commit": d["xadb.deferred_votes"] / n,
			"core.planned_ops_per_commit":    d["core.planned_ops"] / n,
			"core.gated_votes_per_commit":    d["core.gated_votes"] / n,
		},
		Gauges: map[string]float64{
			"consensus.rounds_per_propose": ratio(d["consensus.rounds"], d["consensus.instances"]),
			"consensus.fastpath_share":     ratio(d["consensus.fastpath"], d["consensus.proposes"]),
			"consensus.resends":            d["consensus.resends"],
			"consensus.slots_pruned":       d["consensus.slots_pruned"],
			"consensus.checkpoints_served": d["consensus.checkpoints_served"],
			// Journal appends per device sync, as in BENCHMARK.json: the
			// batched vote/decide path appends unforced and syncs once.
			"stablestore.forced_per_sync": ratio(d["stablestore.writes"], d["stablestore.syncs"]),
			"lockmgr.wait_share":          ratio(d["lockmgr.waits"], d["lockmgr.acquires"]),
			"lockmgr.timeouts":            d["lockmgr.timeouts"],
		},
	}
	if finish != nil {
		finish(&row)
	}
	row.Gauges["consensus.live_slots"] = liveSlots(cl)
	row.Gauges["proc.heap_delta_kb"] = max(0, liveHeap()-heap0) / 1024
	return row, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap returns the heap in use after a forced collection, in bytes.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// liveSlots returns the worst per-replica count of decided batch-log slots.
func liveSlots(c *cluster.Cluster) float64 {
	var worst uint64
	for i := range c.AppIDs() {
		if a := c.App(i + 1); a != nil {
			worst = max(worst, a.ConsensusStats().LiveSlots)
		}
	}
	return float64(worst)
}

// snapshot reads every cumulative counter the layers publish, summed over
// the application servers and over the database servers.
func snapshot(c *cluster.Cluster) map[string]float64 {
	s := make(map[string]float64)
	for i := range c.AppIDs() {
		a := c.App(i + 1)
		if a == nil {
			continue
		}
		st := a.ConsensusStats()
		s["consensus.instances"] += float64(st.Instances)
		s["consensus.proposes"] += float64(st.Proposes)
		s["consensus.rounds"] += float64(st.Rounds)
		s["consensus.msgs"] += float64(st.Messages)
		s["consensus.fastpath"] += float64(st.FastPath)
		s["consensus.resends"] += float64(st.Resends)
		s["consensus.slots_pruned"] += float64(st.SlotsPruned)
		s["consensus.checkpoints_served"] += float64(st.CheckpointsServed)
	}
	for i := range c.DBIDs() {
		e, srv := c.Engine(i+1), c.DataServer(i+1)
		if e == nil || srv == nil {
			continue
		}
		store := e.StableStore()
		s["stablestore.syncs"] += float64(store.Syncs())
		s["stablestore.forces"] += float64(store.ForcedWrites())
		s["stablestore.writes"] += float64(store.TotalWrites())
		ls := e.LockStats()
		s["lockmgr.acquires"] += float64(ls.Acquires)
		s["lockmgr.waits"] += float64(ls.Waits)
		s["lockmgr.timeouts"] += float64(ls.Timeouts)
		s["lockmgr.wait_ms"] += float64(ls.WaitTime) / float64(time.Millisecond)
		ss := e.SpecStats()
		s["xadb.spec_execs"] += float64(ss.Execs)
		s["xadb.deferred_votes"] += float64(ss.Deferred)
		ds := srv.Stats()
		s["core.planned_ops"] += float64(ds.PlannedOps)
		s["core.gated_votes"] += float64(ds.GatedVotes)
	}
	return s
}

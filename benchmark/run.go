package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. N is the number of samples behind it:
// requests for a latency, seconds for a rate, set-ups for the set-up time.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Windows are the one-second windows of the measured interval, which
	// the end-to-end metrics summarise.
	Windows []window `json:"windows,omitempty"`
}

// window is one whole second of the measured interval: the requests that
// committed in it and the latency quantiles of those that belong to it.
type window struct {
	Commits float64 `json:"commits"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
}

func (r *runResult) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// untracedSetups is how often an untraced run builds and warms up the
// deployment: setup_s is the median, which one slow start does not move.
const untracedSetups = 3

type runOptions struct {
	seed    int64
	measure time.Duration
	// setups is how many times the deployment is built and warmed up; the
	// last one is measured and setup_s is the median over all of them.
	setups int
	traced bool
	outDir string
}

// deployment is one build of the rig taken through a whole run: set-up,
// load, the two halves of the oracle, teardown.
type deployment struct {
	load   *loadResult
	setup  time.Duration
	live   []int64
	heapMB float64
	// replayPer1k is the journal replay time per 1000 log records.
	replayPer1k time.Duration
}

func deploy(w workload, o runOptions, measure time.Duration, epoch time.Time, span spanFunc) (*deployment, error) {
	dir, err := os.MkdirTemp(o.outDir, "journals-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	began := time.Since(epoch)
	r, err := buildRig(dir, w.shards, span)
	if err != nil {
		return nil, fmt.Errorf("build rig: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			r.stop()
		}
	}()
	load, err := runLoad(r, w, o.seed, measure, epoch)
	if err != nil {
		return nil, err
	}
	d := &deployment{load: load, setup: load.t0 - began}
	if d.live, err = r.balances(); err != nil {
		return nil, err
	}
	if err := checkExactlyOnce(load.samples, d.live); err != nil {
		return nil, fmt.Errorf("exactly-once oracle: %w", err)
	}
	if o.traced {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		d.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	}
	r.stop()
	stopped = true
	recovered, records, replay, err := recoverBalances(dir, w.shards)
	if err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	if err := checkDurable(d.live, recovered); err != nil {
		return nil, fmt.Errorf("durability oracle: %w", err)
	}
	d.replayPer1k = time.Duration(ratio(float64(replay)*1000, float64(records)))
	return d, nil
}

// maxLateShare is the share of open-loop sends later than lateAfter above
// which a run is invalid: the generator is then not keeping its schedule at
// all. It shares two processors with every tier, so 1% to 3% of its sends
// wait that long for one, and over 5% while the host is slow; the wait is
// charged to the request, which is timed from its due time.
const maxLateShare = 0.25

// errLate marks a run that measured the open loop's generator, not the
// program: the machine was too busy to send requests when they were due.
var errLate = errors.New("open loop ran late")

// runWorkload runs w once and reports its end-to-end metrics (untraced) or
// its per-layer metrics (traced). An error means the run is not a valid
// measurement: an oracle was violated, the open loop ran late, or nothing
// committed.
func runWorkload(w workload, o runOptions) (*runResult, error) {
	epoch := time.Now()
	var col *collector
	var span spanFunc
	if o.traced {
		col = &collector{epoch: epoch}
		span = col.record
	}
	var setups []float64
	var d *deployment
	for i := 1; i <= o.setups; i++ {
		measure := o.measure
		if i < o.setups {
			measure = 0
		}
		var err error
		if d, err = deploy(w, o, measure, epoch, span); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}

	load := d.load
	res := &runResult{Workload: w.name, Traced: o.traced, Attempted: len(load.samples)}
	// The latencies, in ms, of the measured requests, by the whole second of
	// the interval they belong to.
	windows := make([][]float64, int((load.t1-load.t0)/time.Second))
	measured := 0
	var commits []time.Duration
	var late, sloMisses int
	var inFlight time.Duration
	for _, s := range load.samples {
		if s.failed {
			res.Failed++
		}
		// A closed loop is measured by what completed in the interval, an
		// open loop by what was due in it.
		at := s.done
		if w.depth == 0 {
			at = s.due
		}
		if at < load.t0 || at >= load.t1 {
			continue
		}
		if !s.failed {
			commits = append(commits, s.done)
		}
		if i := int((at - load.t0) / time.Second); i < len(windows) {
			windows[i] = append(windows[i], ms(s.done-s.due))
		}
		measured++
		inFlight += s.done - s.due
		if s.sent-s.due > lateAfter {
			late++
		}
		if s.failed || s.done-s.due > 20*time.Millisecond {
			sloMisses++
		}
	}
	if len(commits) == 0 {
		return nil, fmt.Errorf("no commits in the measured interval")
	}
	counts := perSecondCounts(commits, load.t0, load.t1)
	var p50s, p99s []float64
	for i, lat := range windows {
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 50))
		p99s = append(p99s, percentile(lat, 99))
		res.Windows = append(res.Windows, window{counts[i], p50s[i], p99s[i]})
	}
	lateShare := ratio(float64(late), float64(measured))
	if lateShare > maxLateShare {
		return nil, fmt.Errorf("%w on %.1f%% of its sends", errLate, 100*lateShare)
	}

	if !o.traced {
		// Each is the mean over the better quarter of the one-second windows
		// of the interval, see betterQuarter.
		res.Metrics = []metric{
			{"commits_per_s", betterQuarter(counts, true), "1/s", len(windows)},
			{"commit_p50_ms", betterQuarter(p50s, false), "ms", measured},
			{"commit_p99_ms", betterQuarter(p99s, false), "ms", measured},
			{"setup_s", median(setups), "s", len(setups)},
		}
		return res, nil
	}

	reqs := join(col.spans, load.t0, load.t1)
	if err := writeTrace(fmt.Sprintf("%s/trace_%s.json", o.outDir, w.name), w.name, o.seed, reqs); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	n := len(commits)
	per := func(v float64) float64 { return ratio(v, float64(n)) }
	c, p0, p1 := load.layers, load.proc[0], load.proc[1]
	res.Metrics = append(spanMetrics(reqs),
		// Throughput with the span hooks installed; against the untraced
		// run it gives the tracing overhead.
		metric{"trace.commits_per_s", betterQuarter(counts, true), "1/s", len(windows)},
		metric{"core.stale_rejects", float64(c.StaleRejects), "count", n},
		metric{"core.exec_retries", float64(c.ExecRetries), "count", n},

		metric{"consensus.proposes_per_commit", per(float64(c.Proposes)), "count", n},
		metric{"consensus.msgs_per_commit", per(float64(c.ConsensusMsgs)), "count", n},
		metric{"consensus.rounds_per_propose", ratio(float64(c.Rounds), float64(c.Instances)), "count", n},
		// Every application server applies every decided register op once.
		metric{"consensus.ops_per_propose", ratio(float64(c.BatchOps)/appServers, float64(c.Proposes)), "count", n},
		metric{"consensus.fastpath_share", ratio(float64(c.FastPath), float64(c.Proposes)), "share", n},
		metric{"consensus.resends", float64(c.Resends), "count", n},
		metric{"consensus.live_slots", float64(c.LiveSlots), "count", n},

		metric{"tcptransport.frames_per_commit", per(float64(c.FramesSent)), "count", n},
		metric{"tcptransport.bytes_per_commit", per(float64(c.BytesSent)), "B", n},
		metric{"tcptransport.writev_per_commit", per(float64(c.WritevCalls)), "count", n},
		metric{"tcptransport.frames_per_writev", ratio(float64(c.FramesSent), float64(c.WritevCalls)), "count", n},
		metric{"tcptransport.queue_drops", float64(c.QueueDrops), "count", n},
		metric{"tcptransport.conn_drops", float64(c.ConnDrops), "count", n},

		metric{"stablestore.syncs_per_commit", per(float64(c.Syncs)), "count", n},
		// The engine's batched vote/decide path appends unforced and then
		// calls Sync once, so the records a sync made durable are the
		// journal's appends, not the store's own force calls.
		metric{"stablestore.forced_per_sync", ratio(float64(c.LogWrites), float64(c.Syncs)), "count", n},
		metric{"wal.journal_bytes_per_commit", per(float64(c.JournalBytes)), "B", n},

		metric{"lockmgr.acquires_per_commit", per(float64(c.Acquires)), "count", n},
		metric{"lockmgr.wait_share", ratio(float64(c.LockWaits), float64(c.Acquires)), "share", n},
		metric{"lockmgr.wait_ms_per_commit", per(ms(time.Duration(c.LockWaitNs))), "ms", n},
		metric{"lockmgr.timeouts", float64(c.LockTimeouts), "count", n},
		metric{"xadb.spec_execs_per_commit", per(float64(c.SpecExecs)), "count", n},
		metric{"xadb.recovery_ms_per_1k_records", ms(d.replayPer1k), "ms", 1},

		metric{"proc.cpu_ms_per_commit", per(ms(p1.cpu - p0.cpu)), "ms", n},
		metric{"proc.allocs_per_commit", per(float64(p1.mallocs - p0.mallocs)), "count", n},
		metric{"proc.alloc_kb_per_commit", per(float64(p1.allocBytes-p0.allocBytes) / 1024), "kB", n},
		metric{"proc.gc_cycles", float64(p1.gcCycles - p0.gcCycles), "count", n},
		metric{"proc.live_heap_mb", d.heapMB, "MB", 1},

		metric{"loadgen.late_share", lateShare, "share", measured},
		metric{"loadgen.slo_miss_share", ratio(float64(sloMisses), float64(measured)), "share", measured},
		metric{"loadgen.inflight_mean", ratio(float64(inFlight), float64(load.t1-load.t0)), "count", measured},
	)
	return res, nil
}

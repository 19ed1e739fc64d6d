package bench

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/metrics"
)

// FailoverConfig parameterizes the failure-response-time experiment — the
// evaluation the paper explicitly defers ("for a complete evaluation ... one
// obviously needs to consider the actual response-time of the protocol in
// the case of various failure alternatives").
type FailoverConfig struct {
	// Scale is the cost-model multiplier. Default 0.05.
	Scale float64
	// Runs per crash point. Default 5 (every run builds a fresh cluster;
	// application servers do not recover in the model).
	Runs int
	// SuspectTimeout is the ◊P detector's suspicion timeout; failover time
	// is dominated by it. Default 20ms.
	SuspectTimeout time.Duration
	// Quick shrinks the data-tier kill-primary scenario (and the per-point
	// run count) for CI smoke runs.
	Quick bool
}

func (c *FailoverConfig) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Runs <= 0 {
		c.Runs = 5
		if c.Quick {
			c.Runs = 2
		}
	}
	if c.SuspectTimeout <= 0 {
		c.SuspectTimeout = 20 * time.Millisecond
	}
}

// FailoverRow is the client-observed latency when the primary crashes at one
// protocol point.
type FailoverRow struct {
	Point   string
	Latency metrics.Summary
	// Tries is the mean number of tries the client needed.
	Tries float64
}

// Failover is the failure-response-time report.
type Failover struct {
	Scale          float64
	SuspectTimeout time.Duration
	NoCrash        metrics.Summary
	Rows           []FailoverRow
	// DataTier is the replicated-data-tier scenario: kill one shard primary
	// under pipelined load and let a backup promote (see DataTierFailover).
	DataTier *DataTierFailover
}

// RunFailover measures client-observed latency with the primary crashed at
// each point of the executor path, against the failure-free baseline.
func RunFailover(cfg FailoverConfig) (*Failover, error) {
	cfg.setDefaults()
	model := latcost.Paper(cfg.Scale)
	out := &Failover{Scale: cfg.Scale, SuspectTimeout: cfg.SuspectTimeout}

	// Failure-free reference.
	ref := metrics.NewSample()
	for i := 0; i < cfg.Runs; i++ {
		lat, _, err := oneFailoverRun(model, cfg.SuspectTimeout, "")
		if err != nil {
			return nil, err
		}
		ref.AddDuration(lat)
	}
	out.NoCrash = ref.Summarize()

	points := []core.CrashPoint{
		core.PointAfterRegA, core.PointAfterCompute, core.PointAfterPrepare,
		core.PointAfterRegD, core.PointBeforeResult,
	}
	for _, point := range points {
		lats := metrics.NewSample()
		tries := 0.0
		for i := 0; i < cfg.Runs; i++ {
			lat, tr, err := oneFailoverRun(model, cfg.SuspectTimeout, point)
			if err != nil {
				return nil, errf("failover %s run %d: %w", point, i, err)
			}
			lats.AddDuration(lat)
			tries += float64(tr)
		}
		out.Rows = append(out.Rows, FailoverRow{
			Point:   string(point),
			Latency: lats.Summarize(),
			Tries:   tries / float64(cfg.Runs),
		})
	}

	// The replicated data tier: kill one shard primary under load and let
	// the group's heartbeat detector promote a backup.
	dt, err := runDataTierFailover(cfg.Quick)
	if err != nil {
		return nil, fmt.Errorf("data-tier failover: %w", err)
	}
	out.DataTier = dt
	return out, nil
}

// oneFailoverRun builds a fresh cluster, optionally crashes the primary at
// the given point during try 1, and measures the client-observed latency of
// one request. An empty point runs failure-free.
func oneFailoverRun(model latcost.Model, suspect time.Duration, point core.CrashPoint) (time.Duration, uint64, error) {
	var cRef atomic.Pointer[cluster.Cluster]
	var fired atomic.Bool
	total := estimatedTotal(model)
	cfg := scenarioConfig(model)
	cfg.HeartbeatInterval, cfg.SuspectTimeout, cfg.CleanInterval = suspect/6, suspect, suspect/6
	cfg.ClientBackoff, cfg.ClientRebroadcast = 4*total, 4*total
	if point != "" {
		cfg.Hooks = func(self id.NodeID) *core.Hooks {
			if self != id.AppServer(1) {
				return nil
			}
			return &core.Hooks{Crash: func(p core.CrashPoint, rid id.ResultID) {
				if p == point && rid.Try == 1 && fired.CompareAndSwap(false, true) {
					cRef.Load().CrashApp(1)
				}
			}}
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	cRef.Store(c)
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t0 := time.Now()
	if _, err := c.Client(1).Issue(ctx, benchRequest()); err != nil {
		return 0, 0, err
	}
	lat := time.Since(t0)
	if point != "" && !fired.Load() {
		return 0, 0, errf("crash point %s never fired", point)
	}
	if rep := c.CheckProperties(); !rep.Ok() {
		return 0, 0, errf("oracle: %s", rep)
	}
	tries := uint64(1)
	if ds := c.Client(1).Delivered(); len(ds) > 0 {
		tries = ds[0].Tries
	}
	return lat, tries, nil
}

// String renders the failover report.
func (f *Failover) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover response time (scale %.3f, suspicion timeout %v)\n", f.Scale, f.SuspectTimeout)
	fmt.Fprintf(&b, "%-18s %12s %12s %8s\n", "crash point", "mean (ms)", "p99 (ms)", "tries")
	fmt.Fprintf(&b, "%-18s %12.1f %12.1f %8.1f\n", "none", f.NoCrash.Mean, f.NoCrash.P99, 1.0)
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-18s %12.1f %12.1f %8.1f\n", r.Point, r.Latency.Mean, r.Latency.P99, r.Tries)
	}
	b.WriteString("(failover latency ≈ failure-free latency + suspicion timeout + cleaning + retry)\n")
	if f.DataTier != nil {
		b.WriteString("\n")
		b.WriteString(f.DataTier.String())
	}
	return b.String()
}

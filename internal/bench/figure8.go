package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/metrics"
	"etx/internal/spin"
)

// Figure8Config parameterizes the reproduction of the paper's Figure 8
// table ("Comparing the latency of the protocols").
type Figure8Config struct {
	// Scale is the cost-model multiplier (1.0 = the paper's real-time
	// costs). Default 0.05.
	Scale float64
	// Requests per protocol column (after warm-up). Default 30, matching
	// "we executed multiple identical transactions".
	Requests int
	// Warmup requests excluded from the measurement. Default 3.
	Warmup int
	// AppServers is the AR replication degree. Default 3 (tolerates one
	// crash with a majority, the paper's analytic setting).
	AppServers int
}

func (c *Figure8Config) setDefaults() {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Requests <= 0 {
		c.Requests = 30
	}
	if c.Warmup <= 0 {
		c.Warmup = 3
	}
	if c.AppServers <= 0 {
		c.AppServers = 3
	}
}

// Figure8Column is one protocol column of the table, in milliseconds of the
// paper's (unscaled) time base.
type Figure8Column struct {
	Protocol   string
	Start      float64
	End        float64
	Commit     float64
	Prepare    float64
	SQL        float64
	LogStart   float64
	LogOutcome float64
	Other      float64
	Total      float64
	TotalCI90  float64
	// TotalMin is the fastest measured request. A neighbour on the machine
	// only ever adds time, so it is the column's noise-robust statistic: the
	// modelled costs are deterministic and every request pays all of them.
	TotalMin float64
	// Overhead is the cost of reliability relative to the baseline column,
	// in percent.
	Overhead float64
}

// Figure8 is the reproduced table: baseline, AR (the paper's protocol) and
// 2PC columns, exactly the rows of the paper's Figure 8.
type Figure8 struct {
	Scale    float64
	Requests int
	Baseline Figure8Column
	AR       Figure8Column
	TwoPC    Figure8Column
}

// PaperFigure8 returns the table as published (milliseconds), for
// side-by-side comparison in reports and EXPERIMENTS.md.
func PaperFigure8() Figure8 {
	return Figure8{
		Scale: 1.0,
		Baseline: Figure8Column{
			Protocol: ProtocolBaseline,
			Start:    3.4, End: 3.4, Commit: 18.6, Prepare: 0, SQL: 187.0,
			LogStart: 0, LogOutcome: 0, Other: 5.0, Total: 217.4, Overhead: 0,
		},
		AR: Figure8Column{
			Protocol: ProtocolAR,
			Start:    3.5, End: 3.5, Commit: 18.8, Prepare: 19.0, SQL: 193.2,
			LogStart: 4.5, LogOutcome: 4.7, Other: 5.1, Total: 252.3, Overhead: 16,
		},
		TwoPC: Figure8Column{
			Protocol: Protocol2PC,
			Start:    3.5, End: 3.4, Commit: 17.5, Prepare: 21.2, SQL: 190.6,
			LogStart: 12.5, LogOutcome: 12.7, Other: 5.1, Total: 266.5, Overhead: 23,
		},
	}
}

// RunFigure8 measures the three protocols on the calibrated cost model and
// assembles the table.
func RunFigure8(cfg Figure8Config) (*Figure8, error) {
	cfg.setDefaults()
	model := latcost.Paper(cfg.Scale)

	baselineCol, err := runColumn(ProtocolBaseline, model, cfg)
	if err != nil {
		return nil, err
	}
	arCol, err := runColumn(ProtocolAR, model, cfg)
	if err != nil {
		return nil, err
	}
	twoPCCol, err := runColumn(Protocol2PC, model, cfg)
	if err != nil {
		return nil, err
	}

	overhead := func(c *Figure8Column) {
		if baselineCol.Total > 0 {
			c.Overhead = (c.Total - baselineCol.Total) / baselineCol.Total * 100
		}
	}
	overhead(&arCol)
	overhead(&twoPCCol)

	return &Figure8{
		Scale:    cfg.Scale,
		Requests: cfg.Requests,
		Baseline: baselineCol,
		AR:       arCol,
		TwoPC:    twoPCCol,
	}, nil
}

// runColumn measures one protocol's column.
func runColumn(name string, model latcost.Model, cfg Figure8Config) (Figure8Column, error) {
	rec := latcost.NewRecorder()
	r, err := newRunner(name, model, cfg.AppServers, rec)
	if err != nil {
		return Figure8Column{}, errf("%s rig: %w", name, err)
	}
	defer r.Stop()

	totals := metrics.NewSample()
	deadline := 300 * estimatedTotal(model)
	for i := 0; i < cfg.Warmup+cfg.Requests; i++ {
		if i == cfg.Warmup {
			rec.Reset()
			totals = metrics.NewSample()
		}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		t0 := time.Now()
		spin.Sleep(model.ClientStart)
		err := r.Issue(ctx)
		cancel()
		if err != nil {
			return Figure8Column{}, errf("%s request %d: %w", name, i, err)
		}
		spin.Sleep(model.ClientEnd)
		total := time.Since(t0)
		rec.Observe(zeroRID(), core.SpanStart, model.ClientStart)
		rec.Observe(zeroRID(), core.SpanEnd, model.ClientEnd)
		totals.AddDuration(total)
	}
	if r.check != nil {
		if err := r.check(); err != nil {
			return Figure8Column{}, err
		}
	}
	return assembleColumn(name, model, rec, totals), nil
}

func zeroRID() id.ResultID { return id.ResultID{} }

// assembleColumn converts scaled measurements back to the paper's time base
// and derives the "other" row as the unaccounted remainder, exactly like the
// paper ("the amount of time which is unaccounted for after allocating the
// response time to the listed components").
func assembleColumn(name string, model latcost.Model, rec *latcost.Recorder, totals *metrics.Sample) Figure8Column {
	unscale := 1.0 / model.Scale
	col := Figure8Column{
		Protocol:   name,
		Start:      rec.Mean(core.SpanStart) * unscale,
		End:        rec.Mean(core.SpanEnd) * unscale,
		Commit:     rec.Mean(core.SpanCommit) * unscale,
		Prepare:    rec.Mean(core.SpanPrepare) * unscale,
		SQL:        rec.Mean(core.SpanSQL) * unscale,
		LogStart:   rec.Mean(core.SpanLogStart) * unscale,
		LogOutcome: rec.Mean(core.SpanLogOutcome) * unscale,
		Total:      totals.Mean() * unscale,
		TotalCI90:  totals.CI90() * unscale,
		TotalMin:   totals.Min() * unscale,
	}
	accounted := col.Start + col.End + col.Commit + col.Prepare + col.SQL + col.LogStart + col.LogOutcome
	col.Other = col.Total - accounted
	return col
}

// String renders the table in the paper's layout.
func (f *Figure8) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — latency of the protocols (milliseconds, paper time base; scale %.3f, %d requests/protocol)\n",
		f.Scale, f.Requests)
	fmt.Fprintf(&b, "%-20s %10s %10s %10s\n", "protocol", "baseline", "AR", "2PC")
	row := func(label string, sel func(Figure8Column) float64) {
		fmt.Fprintf(&b, "%-20s %10.1f %10.1f %10.1f\n",
			label, sel(f.Baseline), sel(f.AR), sel(f.TwoPC))
	}
	row("start", func(c Figure8Column) float64 { return c.Start })
	row("end", func(c Figure8Column) float64 { return c.End })
	row("commit", func(c Figure8Column) float64 { return c.Commit })
	row("prepare", func(c Figure8Column) float64 { return c.Prepare })
	row("SQL", func(c Figure8Column) float64 { return c.SQL })
	row("log-start", func(c Figure8Column) float64 { return c.LogStart })
	row("log-outcome", func(c Figure8Column) float64 { return c.LogOutcome })
	row("other", func(c Figure8Column) float64 { return c.Other })
	row("total", func(c Figure8Column) float64 { return c.Total })
	fmt.Fprintf(&b, "%-20s %9.0f%% %9.1f%% %9.1f%%\n", "cost of reliability",
		f.Baseline.Overhead, f.AR.Overhead, f.TwoPC.Overhead)
	fmt.Fprintf(&b, "(90%% CI of totals: baseline ±%.1f, AR ±%.1f, 2PC ±%.1f)\n",
		f.Baseline.TotalCI90, f.AR.TotalCI90, f.TwoPC.TotalCI90)
	return b.String()
}

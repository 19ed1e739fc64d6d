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
	"etx/internal/msg"
	"etx/internal/trace"
	"etx/internal/workload"
)

// ProtocolTrace is one protocol's communication pattern for a single
// failure-free request: the collapsed timeline (one entry per arrow group of
// the paper's diagrams), per-kind message counts and the total.
type ProtocolTrace struct {
	Name     string
	Steps    []trace.Step
	Counts   map[msg.Kind]int
	Messages int
}

// Figure7 is the reproduction of the paper's Figure 7: the communication
// steps of the four protocols in failure-free executions.
type Figure7 struct {
	Protocols []ProtocolTrace
}

// RunFigure7 traces one failure-free request through each protocol.
func RunFigure7(scale float64) (*Figure7, error) {
	model := latcost.Paper(scale)
	out := &Figure7{}

	// Baseline (Figure 7a) and 2PC (Figure 7b).
	for _, p := range []struct {
		name  string
		build func(latcost.Model, *latcost.Recorder) (*soloRig, error)
	}{
		{ProtocolBaseline, newBaselineRig},
		{Protocol2PC, newTwoPCRig},
	} {
		rig, err := p.build(model, nil)
		if err != nil {
			return nil, errf("figure7 %s: %w", p.name, err)
		}
		col := trace.New(rig.net, trace.ProtocolOnly)
		ctx, cancel := context.WithTimeout(context.Background(), 300*estimatedTotal(model))
		dec, err := rig.client.Call(ctx, benchRequest())
		cancel()
		if err != nil || !dec.Committed() {
			rig.stop()
			return nil, errf("figure7 %s request failed: %v (%v)", p.name, err, dec)
		}
		rig.net.Quiesce()
		out.Protocols = append(out.Protocols, ProtocolTrace{
			Name: p.name, Steps: col.Steps(), Counts: col.Counts(), Messages: col.Total(),
		})
		rig.stop()
	}

	// Primary-backup (Figure 7c).
	pb, err := newPBRig(model, nil, nil)
	if err != nil {
		return nil, errf("figure7 PB: %w", err)
	}
	pbCol := trace.New(pb.net, trace.ProtocolOnly)
	ctx, cancel := context.WithTimeout(context.Background(), 300*estimatedTotal(model))
	if _, err := pb.client.Issue(ctx, benchRequest()); err != nil {
		cancel()
		pb.stop()
		return nil, errf("figure7 PB request: %w", err)
	}
	cancel()
	pb.net.Quiesce()
	out.Protocols = append(out.Protocols, ProtocolTrace{
		Name: ProtocolPB, Steps: pbCol.Steps(), Counts: pbCol.Counts(), Messages: pbCol.Total(),
	})
	pb.stop()

	// Asynchronous replication (Figure 7d = Figure 1a).
	arTrace, _, err := traceARScenario(model, nil, nil)
	if err != nil {
		return nil, err
	}
	out.Protocols = append(out.Protocols, *arTrace)
	return out, nil
}

// traceARScenario runs one request through an AR cluster with optional crash
// hooks and an optional post-setup callback, returning the trace and the
// number of tries the client needed.
func traceARScenario(model latcost.Model, hooks func(self id.NodeID, c *atomic.Pointer[cluster.Cluster]) *core.Hooks,
	logic core.Logic) (*ProtocolTrace, *core.Client, error) {
	var cRef atomic.Pointer[cluster.Cluster]
	total := estimatedTotal(model)
	cfg := scenarioConfig(model)
	if logic != nil {
		cfg.Logic = logic
	}
	cfg.HeartbeatInterval, cfg.SuspectTimeout, cfg.CleanInterval = 2*time.Millisecond, 16*time.Millisecond, 2*time.Millisecond
	cfg.ClientBackoff, cfg.ClientRebroadcast = 20*total, 20*total
	if hooks != nil {
		cfg.Hooks = func(self id.NodeID) *core.Hooks { return hooks(self, &cRef) }
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, errf("AR scenario rig: %w", err)
	}
	cRef.Store(c)
	defer c.Stop()

	col := trace.New(c.Net, trace.ProtocolOnly)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Client(1).Issue(ctx, benchRequest()); err != nil {
		return nil, nil, errf("AR scenario request: %w", err)
	}
	time.Sleep(10 * time.Millisecond) // let trailing acks land
	c.Net.Quiesce()
	if rep := c.CheckProperties(); !rep.Ok() {
		return nil, nil, errf("AR scenario oracle: %s", rep)
	}
	deliveries := c.Client(1).Delivered()
	tries := uint64(0)
	if len(deliveries) > 0 {
		tries = deliveries[0].Tries
	}
	return &ProtocolTrace{
		Name:     fmt.Sprintf("%s (tries=%d)", ProtocolAR, tries),
		Steps:    col.Steps(),
		Counts:   col.Counts(),
		Messages: col.Total(),
	}, c.Client(1), nil
}

// String renders the Figure 7 report.
func (f *Figure7) String() string {
	var b strings.Builder
	b.WriteString("Figure 7 — communication of the protocols, one failure-free request\n")
	for _, p := range f.Protocols {
		fmt.Fprintf(&b, "\n%s: %d messages, %d steps\n", p.Name, p.Messages, len(p.Steps))
		fmt.Fprintf(&b, "  by kind: %s\n", trace.FormatCounts(p.Counts))
		for i, s := range p.Steps {
			fmt.Fprintf(&b, "  step %2d: %s\n", i+1, s)
		}
	}
	return b.String()
}

// Figure1Scenario is one of the paper's Figure 1 executions.
type Figure1Scenario struct {
	Name     string
	Trace    ProtocolTrace
	Outcome  string
	Tries    uint64
	CrashRan bool
}

// Figure1 is the reproduction of the paper's Figure 1: the protocol's
// message pattern in the four canonical executions.
type Figure1 struct {
	Scenarios []Figure1Scenario
}

// RunFigure1 exercises the four executions of Figure 1: failure-free commit,
// failure-free abort (the databases refuse the first try), fail-over with
// commit (primary crashes after regD), and fail-over with abort (primary
// crashes before regD).
func RunFigure1(scale float64) (*Figure1, error) {
	model := latcost.Paper(scale)
	out := &Figure1{}

	// (a) Failure-free run with commit.
	tr, cl, err := traceARScenario(model, nil, nil)
	if err != nil {
		return nil, err
	}
	out.Scenarios = append(out.Scenarios, scenarioOf("(a) failure-free commit", tr, cl, false))

	// (b) Failure-free run with abort: the databases refuse try 1.
	var attempt atomic.Int64
	abortOnce := core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
		if attempt.Add(1) == 1 {
			if _, err := tx.Exec(ctx, tx.DBs()[0], msg.Op{Code: msg.OpCheckGE, Key: "acct/" + seedAccount, Delta: 1 << 62}); err != nil {
				return nil, err
			}
			return []byte("refused"), nil
		}
		return workload.Bank(ctx, tx, req, 0)
	})
	tr, cl, err = traceARScenario(model, nil, abortOnce)
	if err != nil {
		return nil, err
	}
	out.Scenarios = append(out.Scenarios, scenarioOf("(b) abort then retried commit", tr, cl, false))

	// (c) Fail-over with commit; (d) fail-over with abort.
	for _, sc := range []struct {
		name  string
		point core.CrashPoint
	}{
		{"(c) fail-over with commit (crash after regD write)", core.PointAfterRegD},
		{"(d) fail-over with abort (crash after prepare)", core.PointAfterPrepare},
	} {
		var fired atomic.Bool
		hooks := func(self id.NodeID, cRef *atomic.Pointer[cluster.Cluster]) *core.Hooks {
			if self != id.AppServer(1) {
				return nil
			}
			return &core.Hooks{Crash: func(p core.CrashPoint, rid id.ResultID) {
				if p == sc.point && rid.Try == 1 && fired.CompareAndSwap(false, true) {
					cRef.Load().CrashApp(1)
				}
			}}
		}
		tr, cl, err := traceARScenario(model, hooks, nil)
		if err != nil {
			return nil, errf("figure1 %s: %w", sc.name, err)
		}
		s := scenarioOf(sc.name, tr, cl, fired.Load())
		out.Scenarios = append(out.Scenarios, s)
	}
	return out, nil
}

func scenarioOf(name string, tr *ProtocolTrace, cl *core.Client, crashed bool) Figure1Scenario {
	s := Figure1Scenario{Name: name, Trace: *tr, Outcome: "commit", CrashRan: crashed}
	if ds := cl.Delivered(); len(ds) > 0 {
		s.Tries = ds[0].Tries
	}
	return s
}

// String renders the Figure 1 report.
func (f *Figure1) String() string {
	var b strings.Builder
	b.WriteString("Figure 1 — protocol executions (message patterns)\n")
	for _, s := range f.Scenarios {
		fmt.Fprintf(&b, "\n%s: delivered after %d tries, %d messages\n", s.Name, s.Tries, s.Trace.Messages)
		fmt.Fprintf(&b, "  by kind: %s\n", trace.FormatCounts(s.Trace.Counts))
	}
	return b.String()
}

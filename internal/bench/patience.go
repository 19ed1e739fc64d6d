package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"etx/internal/cluster"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/trace"
)

// PatienceRow is one client-patience setting: how long the client waits for
// the default primary before broadcasting to every application server.
type PatienceRow struct {
	// Backoff as a fraction of the failure-free request latency.
	BackoffFraction float64
	// Messages per request (mean), counting protocol traffic only.
	Messages float64
	// RegARaces is the mean number of distinct application servers competing
	// for regA per request (1 = pure primary-backup regime; ~replicas =
	// active-replication regime).
	RegARaces float64
	Latency   metrics.Summary
}

// Patience reproduces the paper's Section 5 observation: "with a 'patient'
// client ... our replication scheme tends to be similar to a primary-backup
// scheme; with an 'impatient' client ... all application servers try to
// concurrently commit or abort a result ... like in an active replication
// scheme". Sweeping the client's back-off exposes the morphing.
type Patience struct {
	Rows []PatienceRow
}

// RunPatience sweeps the client's back-off period from far below the
// failure-free latency (impatient: every request is broadcast, all replicas
// race on regA) to far above it (patient: the primary runs alone).
//
// The regA race is only open for about one app-app round trip (≈4.4 ms in
// the paper's time base) after the primary receives the request — far below
// what scaled-down costs and kernel timer resolution can express. This
// experiment therefore runs at the paper's real-time network costs with the
// SQL work shortened tenfold so a full sweep still takes under a second.
func RunPatience(requests int) (*Patience, error) {
	if requests <= 0 {
		requests = 8
	}
	model := latcost.Paper(1.0)
	model.SQLWork /= 10
	out := &Patience{}
	// Below ~0.03 of the total, the broadcast reaches the backups before the
	// primary's regA decision does and they forward writes of their own
	// (visible racing); after that window they read the decided register.
	for _, frac := range []float64{0.01, 0.1, 2, 20} {
		row, err := onePatienceRun(model, frac, requests)
		if err != nil {
			return nil, errf("patience %.2f: %w", frac, err)
		}
		out.Rows = append(out.Rows, *row)
	}
	return out, nil
}

func onePatienceRun(model latcost.Model, frac float64, requests int) (*PatienceRow, error) {
	total := estimatedTotal(model)
	backoff := time.Duration(float64(total) * frac)
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	cfg := scenarioConfig(model)
	cfg.SuspectTimeout = 100 * total
	// Faithful to Figure 2: one broadcast after the back-off, then wait
	// (the long rebroadcast is only the liveness net).
	cfg.ClientBackoff, cfg.ClientRebroadcast = backoff, 20*total
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Stop()

	col := trace.New(c.Net, trace.ProtocolOnly)
	lats := metrics.NewSample()
	races := 0
	msgs := 0
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < requests; i++ {
		col.Reset()
		t0 := time.Now()
		if _, err := c.Client(1).Issue(ctx, benchRequest()); err != nil {
			return nil, err
		}
		lats.AddDuration(time.Since(t0))
		time.Sleep(5 * time.Millisecond) // absorb trailing traffic
		c.Net.Quiesce()
		msgs += col.Total()
		races += regAWriters(col, uint64(i+1))
	}
	if rep := c.CheckProperties(); !rep.Ok() {
		return nil, errf("oracle: %s", rep)
	}
	return &PatienceRow{
		BackoffFraction: frac,
		Messages:        float64(msgs) / float64(requests),
		RegARaces:       float64(races) / float64(requests),
		Latency:         lats.Summarize(),
	}, nil
}

// regAWriters counts the distinct application servers that wrote regA of
// request seq — the competitors for executing the try: a server proposing a
// slot that carries the write, or forwarding it to the preferred sequencer.
func regAWriters(col *trace.Collector, seq uint64) int {
	writers := make(map[id.NodeID]bool)
	for _, ev := range col.Events() {
		var ops []msg.RegOp
		//etxlint:allow kindswitch — trace filter: only the two kinds that carry a server's own register writes count
		switch p := ev.Payload.(type) {
		case msg.Propose:
			ops, _ = msg.DecodeRegOps(p.Val)
		case msg.RegOps:
			ops = p.Ops
		default:
			continue
		}
		for _, op := range ops {
			if op.Reg.Array == msg.RegA && op.Reg.RID.Seq == seq {
				writers[ev.From] = true
			}
		}
	}
	return len(writers)
}

// String renders the patience sweep.
func (p *Patience) String() string {
	var b strings.Builder
	b.WriteString("Client patience sweep (real-time network costs, SQL/10): primary-backup <-> active replication\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %14s\n", "backoff/latency", "msgs/req", "regA racers", "latency (ms)")
	for _, r := range p.Rows {
		fmt.Fprintf(&b, "%-18.2f %12.1f %12.1f %14.1f\n",
			r.BackoffFraction, r.Messages, r.RegARaces, r.Latency.Mean)
	}
	b.WriteString("(impatient clients broadcast early: every replica races on regA, like\n" +
		" active replication; patient clients leave the primary alone, like\n" +
		" primary-backup — the paper's Section 5 observation)\n")
	return b.String()
}

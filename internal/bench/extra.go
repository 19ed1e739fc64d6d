package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/latcost"
	"etx/internal/msg"
	"etx/internal/transport"
)

// --- EXP-FS: false suspicions — AR stays safe, primary-backup does not ------

// Suspicion reports how many runs of each protocol produced an inconsistency
// under injected false suspicions.
type Suspicion struct {
	Runs           int
	PBInconsistent int
	ARInconsistent int
	ARDeliveredAll int
	PBDescription  string
}

// RunSuspicion injects a false suspicion of the live primary mid-protocol in
// both the primary-backup scheme and the replicated protocol, many times,
// and counts observable inconsistencies (server-believed outcome differing
// from the database-recorded outcome, or oracle violations).
func RunSuspicion(scale float64, runs int) (*Suspicion, error) {
	if scale <= 0 {
		scale = 0.02
	}
	if runs <= 0 {
		runs = 10
	}
	model := latcost.Paper(scale)
	out := &Suspicion{Runs: runs,
		PBDescription: "primary believes commit while the database aborted (lost result)"}

	for i := 0; i < runs; i++ {
		bad, err := onePBSuspicionRun(model)
		if err != nil {
			return nil, errf("suspicion PB run %d: %w", i, err)
		}
		if bad {
			out.PBInconsistent++
		}
	}
	for i := 0; i < runs; i++ {
		delivered, bad, err := oneARSuspicionRun(model)
		if err != nil {
			return nil, errf("suspicion AR run %d: %w", i, err)
		}
		if bad {
			out.ARInconsistent++
		}
		if delivered {
			out.ARDeliveredAll++
		}
	}
	return out, nil
}

// onePBSuspicionRun reproduces the deterministic false-suspicion window in
// the primary-backup scheme and reports whether the inconsistency appeared.
func onePBSuspicionRun(model latcost.Model) (bool, error) {
	backupDet := fd.NewScripted()
	var once atomic.Bool
	hooks := map[id.NodeID]*core.Hooks{
		id.AppServer(1): {Crash: func(p core.CrashPoint, rid id.ResultID) {
			if p == core.PointAfterPrepare && once.CompareAndSwap(false, true) {
				backupDet.Set(id.AppServer(1), true)
				time.Sleep(30 * time.Millisecond) // give the backup time to "clean up"
			}
		}},
	}
	rig, err := newPBRig(model, hooks, func(self, peer id.NodeID, net *transport.MemNetwork) fd.Detector {
		if self == id.AppServer(2) {
			return backupDet
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	defer rig.stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := rig.client.Issue(ctx, benchRequest()); err != nil {
		return false, err
	}
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dec, ok := rig.servers[id.AppServer(1)].RecordedOutcome(rid); ok {
			dbOutcome := rig.engines[id.DBServer(1)].Outcomes()[rid]
			return dec.Outcome == msg.OutcomeCommit && dbOutcome == msg.OutcomeAbort, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false, errf("PB primary never recorded an outcome")
}

// oneARSuspicionRun injects the same false suspicion into the replicated
// protocol: the cleaner races the live executor, the wo-register arbitrates.
func oneARSuspicionRun(model latcost.Model) (delivered, inconsistent bool, err error) {
	dets := make(map[id.NodeID]*fd.Scripted)
	total := estimatedTotal(model)
	c, buildErr := arDeploymentWithDetectors(model, dets)
	if buildErr != nil {
		return false, false, buildErr
	}
	defer c.Stop()

	// False suspicion storm against the live primary, lifted later
	// (eventual accuracy).
	dets[id.AppServer(2)].Set(id.AppServer(1), true)
	dets[id.AppServer(3)].Set(id.AppServer(1), true)
	go func() {
		time.Sleep(40 * total)
		dets[id.AppServer(2)].Set(id.AppServer(1), false)
		dets[id.AppServer(3)].Set(id.AppServer(1), false)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, issueErr := c.Client(1).Issue(ctx, benchRequest())
	rep := c.CheckProperties()
	return issueErr == nil, !rep.Ok(), nil
}

// arDeploymentWithDetectors builds an AR cluster with scripted detectors and
// an aggressive cleaner, so injected suspicions bite quickly.
func arDeploymentWithDetectors(model latcost.Model, dets map[id.NodeID]*fd.Scripted) (*cluster.Cluster, error) {
	total := estimatedTotal(model)
	cfg := scenarioConfig(model)
	cfg.CleanInterval = 2 * time.Millisecond
	cfg.ClientBackoff, cfg.ClientRebroadcast = 4*total, 4*total
	cfg.Detector = func(self id.NodeID) fd.Detector {
		d := fd.NewScripted()
		dets[self] = d
		return d
	}
	return cluster.New(cfg)
}

// String renders the suspicion report.
func (s *Suspicion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "False-suspicion robustness (%d runs per protocol)\n", s.Runs)
	fmt.Fprintf(&b, "%-18s %14s %14s\n", "protocol", "inconsistent", "delivered")
	fmt.Fprintf(&b, "%-18s %14d %14s\n", ProtocolPB, s.PBInconsistent, "n/a")
	fmt.Fprintf(&b, "%-18s %14d %14d\n", ProtocolAR, s.ARInconsistent, s.ARDeliveredAll)
	fmt.Fprintf(&b, "(PB inconsistency: %s;\n AR tolerates unreliable failure detection by construction)\n", s.PBDescription)
	return b.String()
}

// --- EXP-GC: register retirement ablation ------------------------------------

// GCAblation reports register-state growth with and without retirement.
type GCAblation struct {
	Requests         int
	KeysWithout      int
	KeysWith         int
	HeapDeltaWithout uint64
	HeapDeltaWith    uint64
}

// RunGCAblation issues many requests with and without the Retire extension
// and reports retained register keys (summed over replicas) and heap growth,
// quantifying the garbage-collection concern the paper defers in Section 5.
func RunGCAblation(requests int) (*GCAblation, error) {
	if requests <= 0 {
		requests = 150
	}
	out := &GCAblation{Requests: requests}
	for _, retire := range []bool{false, true} {
		model := latcost.Paper(0.001) // latency is irrelevant here
		c, err := arDeployment(model, 3, 1, nil)
		if err != nil {
			return nil, errf("gc ablation: %w", err)
		}
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		ctx := context.Background()
		for i := 0; i < requests; i++ {
			if _, err := c.Client(1).Issue(ctx, benchRequest()); err != nil {
				c.Stop()
				return nil, errf("gc ablation request %d: %w", i, err)
			}
			if retire {
				c.Retire(id.RequestKey{Client: id.Client(1), Seq: uint64(i + 1)}, 1)
			}
		}
		keys := 0
		for i := 1; i <= 3; i++ {
			if app := c.App(i); app != nil {
				keys += len(app.Registers().KnownTries())
			}
		}
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		heap := uint64(0)
		if after.HeapAlloc > before.HeapAlloc {
			heap = after.HeapAlloc - before.HeapAlloc
		}
		if retire {
			out.KeysWith = keys
			out.HeapDeltaWith = heap
		} else {
			out.KeysWithout = keys
			out.HeapDeltaWithout = heap
		}
		c.Stop()
	}
	return out, nil
}

// String renders the ablation report.
func (g *GCAblation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Register garbage-collection ablation (%d requests)\n", g.Requests)
	fmt.Fprintf(&b, "%-22s %14s %16s\n", "variant", "register keys", "heap delta (KiB)")
	fmt.Fprintf(&b, "%-22s %14d %16d\n", "no retirement (paper)", g.KeysWithout, g.HeapDeltaWithout/1024)
	fmt.Fprintf(&b, "%-22s %14d %16d\n", "with retirement", g.KeysWith, g.HeapDeltaWith/1024)
	b.WriteString("(retirement is safe once the client acknowledged delivery — the timed\n" +
		" guarantee the paper says a complete treatment would need)\n")
	return b.String()
}

// Package bench contains the experiment harness that regenerates the tables
// and figures of the paper's evaluation (Appendix 3) and the scenarios its
// text describes: the Figure-8 latency table, the Figure-7 message patterns,
// the Figure-1 executions, failover response time, false-suspicion
// robustness, client patience and the garbage-collection ablation, a file
// or a section each.
//
// Each experiment builds fresh deployments on the in-memory network with the
// calibrated latcost model, runs the paper's bank workload, and reports
// paper-style tables. Absolute values depend on the Scale knob; the claims
// under reproduction are about shape: ordering, ratios and crossover points.
// Throughput is measured elsewhere, over loopback TCP (benchmark/).
package bench

import (
	"context"
	"fmt"
	"time"

	"etx/internal/baseline"
	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/latcost"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/workload"
	"etx/internal/xadb"
)

// Protocol names used across reports.
const (
	ProtocolBaseline = "baseline"
	ProtocolAR       = "AR" // the paper's asynchronous-replication protocol
	Protocol2PC      = "2PC"
	ProtocolPB       = "primary-backup"
)

// seedAccount is the bank account every latency experiment updates.
const seedAccount = "bench"

func benchSeed() []kv.Write {
	return workload.BankSeed(map[string]int64{seedAccount: 1 << 40})
}

func benchRequest() []byte {
	return workload.EncodeBank(workload.BankRequest{Account: seedAccount, Amount: -1})
}

// scenarioConfig is the deployment the scenario experiments start from: three
// application servers, one database and one client working the one bench
// account with the bank logic, on the paper's calibrated cost model (its
// per-tier message latencies, simulated SQL time and forced-write cost), with
// protocol timers generous enough that nothing fires spuriously in a
// failure-free run. Scenarios that inject failures override the timers the
// failure exercises.
func scenarioConfig(model latcost.Model) cluster.Config {
	return cluster.Config{
		AppServers:  3,
		DataServers: 1,
		Clients:     1,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			return workload.Bank(ctx, tx, req, model.SQLWork)
		}),
		Seed: benchSeed(),
		Tuning: deploy.Tuning{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectTimeout:    time.Second,
		},
		Net:          transport.Options{Latency: model.LatencyFunc()},
		ForceLatency: model.DBForce,

		ResendInterval:    5 * time.Second,
		CleanInterval:     50 * time.Millisecond,
		ClientBackoff:     5 * time.Second,
		ClientRebroadcast: 5 * time.Second,
		ComputeTimeout:    30 * time.Second,
	}
}

// arDeployment builds a failure-free AR cluster calibrated with the model.
func arDeployment(model latcost.Model, appServers, dbServers int, rec *latcost.Recorder) (*cluster.Cluster, error) {
	cfg := scenarioConfig(model)
	cfg.AppServers, cfg.DataServers = appServers, dbServers
	if rec != nil {
		cfg.Hooks = func(self id.NodeID) *core.Hooks { return rec.Hooks() }
	}
	return cluster.New(cfg)
}

// estimatedTotal approximates one failure-free request's latency, used to
// derive safe timeout knobs.
func estimatedTotal(m latcost.Model) time.Duration {
	t := m.ClientStart + m.ClientEnd + m.SQLWork +
		2*m.ClientApp + 8*m.AppDB + 4*m.AppApp + 2*m.DBForce
	if t < 5*time.Millisecond {
		t = 5 * time.Millisecond
	}
	return t
}

// soloRig hosts one non-replicated protocol (baseline or 2PC): its
// application server, the database tier, and a one-shot client.
type soloRig struct {
	net    *transport.MemNetwork
	client *baseline.OneShotClient
	stops  []func()
}

func (r *soloRig) stop() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.net.Close()
}

// newSoloRig wires the database tier and one core.AppServer writing its
// tries to log.
func newSoloRig(model latcost.Model, log core.TryLog, rec *latcost.Recorder) (*soloRig, error) {
	rig := &soloRig{net: transport.NewMemNetwork(transport.Options{Latency: model.LatencyFunc()})}
	dbID := id.DBServer(1)
	ep, err := rig.net.Attach(dbID)
	if err != nil {
		rig.stop()
		return nil, err
	}
	db, err := deploy.StartDataNode(deploy.DataNodeConfig{
		Self: dbID, Endpoint: ep, Store: stablestore.New(model.DBForce), Seed: benchSeed(),
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.stops = append(rig.stops, db.Stop)

	appID := id.AppServer(1)
	appEP, err := rig.net.Attach(appID)
	if err != nil {
		rig.stop()
		return nil, err
	}
	var hooks *core.Hooks
	if rec != nil {
		hooks = rec.Hooks()
	}
	srv, err := core.NewAppServer(core.AppServerConfig{
		Self: appID, AppServers: []id.NodeID{appID}, DataServers: []id.NodeID{dbID}, Endpoint: appEP,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			return workload.Bank(ctx, tx, req, model.SQLWork)
		}),
		Log:            log,
		ResendInterval: 100 * estimatedTotal(model),
		Hooks:          hooks,
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	srv.Start()
	rig.stops = append(rig.stops, srv.Stop)

	clEP, err := rig.net.Attach(id.Client(1))
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.client = baseline.NewOneShotClient(id.Client(1), appID, clEP)
	return rig, nil
}

// newBaselineRig builds the Figure 7(a) deployment: one application server
// that logs nothing and commits in one phase.
func newBaselineRig(model latcost.Model, rec *latcost.Recorder) (*soloRig, error) {
	return newSoloRig(model, core.NoLog, rec)
}

// newTwoPCRig builds the Figure 7(b) deployment: one application server
// whose tries are forced to its local log.
func newTwoPCRig(model latcost.Model, rec *latcost.Recorder) (*soloRig, error) {
	return newSoloRig(model, baseline.NewTwoPCLog(stablestore.New(model.CoordForce)), rec)
}

// pbRig hosts the Figure 7(c) primary-backup pair.
type pbRig struct {
	net     *transport.MemNetwork
	client  *core.Client
	servers map[id.NodeID]*baseline.PBServer
	engines map[id.NodeID]*xadb.Engine
	stops   []func()
}

func (r *pbRig) stop() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.net.Close()
}

// newPBRig builds the primary-backup deployment. detFor overrides the
// failure detector per server (nil = perfect detection from network ground
// truth).
func newPBRig(model latcost.Model, hooks map[id.NodeID]*core.Hooks, detFor func(self, peer id.NodeID, net *transport.MemNetwork) fd.Detector) (*pbRig, error) {
	rig := &pbRig{
		net:     transport.NewMemNetwork(transport.Options{Latency: model.LatencyFunc()}),
		servers: make(map[id.NodeID]*baseline.PBServer),
		engines: make(map[id.NodeID]*xadb.Engine),
	}
	dbID := id.DBServer(1)
	dbEP, err := rig.net.Attach(dbID)
	if err != nil {
		rig.stop()
		return nil, err
	}
	db, err := deploy.StartDataNode(deploy.DataNodeConfig{
		Self: dbID, Endpoint: dbEP, Store: stablestore.New(model.DBForce), Seed: benchSeed(),
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.stops = append(rig.stops, db.Stop)
	rig.engines[dbID] = db.Engine

	a1, a2 := id.AppServer(1), id.AppServer(2)
	for _, pair := range []struct {
		self, peer id.NodeID
		primary    bool
	}{{a1, a2, true}, {a2, a1, false}} {
		ep, err := rig.net.Attach(pair.self)
		if err != nil {
			rig.stop()
			return nil, err
		}
		var det fd.Detector
		if detFor != nil {
			det = detFor(pair.self, pair.peer, rig.net)
		}
		if det == nil {
			det = &fd.Perfect{Truth: rig.net, Peers: []id.NodeID{pair.peer}}
		}
		srv, err := baseline.NewPBServer(baseline.PBConfig{
			Self: pair.self, Peer: pair.peer, Primary: pair.primary,
			DataServers: []id.NodeID{dbID}, Endpoint: ep,
			Logic: baseline.LogicFunc(func(ctx context.Context, tx *baseline.Tx, req []byte) ([]byte, error) {
				return workload.Bank(ctx, tx, req, model.SQLWork)
			}),
			Detector:         det,
			Resend:           100 * estimatedTotal(model),
			TakeoverInterval: 2 * time.Millisecond,
			Hooks:            hooks[pair.self],
		})
		if err != nil {
			rig.stop()
			return nil, err
		}
		srv.Start()
		rig.stops = append(rig.stops, srv.Stop)
		rig.servers[pair.self] = srv
	}

	clEP, err := rig.net.Attach(id.Client(1))
	if err != nil {
		rig.stop()
		return nil, err
	}
	total := estimatedTotal(model)
	cl, err := core.NewClient(core.ClientConfig{
		Self: id.Client(1), AppServers: []id.NodeID{a1, a2}, Endpoint: clEP,
		Backoff: 20 * total, Rebroadcast: 20 * total,
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.stops = append(rig.stops, cl.Stop)
	rig.client = cl
	return rig, nil
}

// errf wraps experiment failures uniformly.
func errf(format string, args ...any) error {
	return fmt.Errorf("bench: "+format, args...)
}

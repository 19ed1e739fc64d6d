// Package deploy is the one place a process of the three-tier deployment is
// put together. The paper defines each process once (Figure 3 the database
// server, Figures 4–6 the application server, Section 2 the system model) and
// so does this package: Tuning holds the knobs every member of a deployment
// must agree on, with their defaulting (Resolve) and their command-line form
// (RegisterFlags); StartDataNode, StartBackup and StartAppNode wire one
// process of each kind over a plain transport.Endpoint, so the in-memory
// cluster, the TCP binaries and hand-built test deployments run one sequence.
// What differs between them stays with the caller: how endpoints are made,
// where stable storage lives and what a forced write costs, the business
// logic, the address books.
package deploy

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/placement"
	"etx/internal/repl"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/wal"
	"etx/internal/xadb"
)

// Tuning is the set of knobs a deployment is tuned by; every process of the
// deployment must run the same one. The zero value is the paper-exact
// configuration (one compute thread per application server, every decided
// slot retained, an unreplicated data tier) and each field switches one
// mechanism on deployment-wide. README has a section on each mechanism.
//
// Batching is no knob: every deployment runs the one batched design, whose
// depth-1 point is the paper's protocol. Database servers drain their
// mailbox up to 64 messages at a time and cover a drain's forced records
// with one fsync; application servers fold concurrent register writes into
// shared consensus slots, capped by their sampled in-flight depth (one at
// depth 1, toward 64 under pipelining). No batch waits on a timer, so a
// lone request pays one fsync per forced write and one consensus instance
// per register write.
type Tuning struct {
	// RetainSlots bounds the cohort-consensus log: decided slots below the
	// cluster-wide applied watermark minus this tail are truncated, and a
	// replica further behind catches up by checkpoint transfer. 0 retains
	// every slot — at depth 1, one per register write.
	RetainSlots int
	// Workers is the number of compute threads per application server (the
	// paper and the default: 1); raise it for pipelined clients. It bounds
	// computation only: a try waiting on votes or acks holds no thread.
	Workers int
	// LockTimeout bounds a database vote's wait for its undecided chain
	// predecessors (xadb/spec.go); expiry votes no. Default 250ms.
	LockTimeout time.Duration
	// HeartbeatInterval paces the failure detectors' beacons, among the
	// application servers and inside each replica group. Default 10ms.
	HeartbeatInterval time.Duration
	// SuspectTimeout is how long a peer may stay silent before it is
	// suspected: smaller means faster failover and more false suspicions,
	// which are safe but cost retries. Default 6 heartbeat intervals.
	SuspectTimeout time.Duration
	// ReplicaFactor gives every shard a replica group of this size (Groups
	// numbers them): the boot primary streams its log to asynchronous
	// backups (internal/repl), the lowest-ranked live backup takes over when
	// it is suspected, and application servers route through an
	// epoch-stamped view that fences the deposed primary out. 1, the
	// default, instantiates none of this.
	ReplicaFactor int
}

// Resolve returns t with ReplicaFactor at least 1. A zero timer stays zero:
// it means the default of the package that runs it. Resolve is idempotent.
func (t Tuning) Resolve() Tuning {
	if t.ReplicaFactor <= 0 {
		t.ReplicaFactor = 1
	}
	return t
}

// ServerDefaults is the Tuning the server binaries start their flags from:
// the paper-exact zero value with a suspicion timeout sized for real sockets
// and process scheduling rather than the in-memory network.
func ServerDefaults() Tuning {
	return Tuning{SuspectTimeout: 500 * time.Millisecond}
}

// RegisterFlags binds every knob to a flag of fs; the values t holds when it
// is called are the flags' defaults. Both server binaries register the same
// set, so one flag list tunes every process of a deployment alike.
func (t *Tuning) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&t.RetainSlots, "retain-slots", t.RetainSlots, "application servers: >0 truncates decided consensus slots below the cluster-wide applied watermark minus this many (laggards catch up by checkpoint transfer); 0 retains every slot")
	fs.IntVar(&t.Workers, "workers", t.Workers, "application servers: compute threads (raise for pipelined clients)")
	fs.DurationVar(&t.LockTimeout, "lock-timeout", t.LockTimeout, "database servers: bound on a vote's wait for undecided predecessors on the same keys (0 = 250ms)")
	fs.DurationVar(&t.HeartbeatInterval, "heartbeat", t.HeartbeatInterval, "failure-detector beacon period, among application servers and inside replica groups (0 = 10ms)")
	fs.DurationVar(&t.SuspectTimeout, "suspect", t.SuspectTimeout, "failure-suspicion timeout (0 = 6 heartbeats)")
	fs.IntVar(&t.ReplicaFactor, "replicas", t.ReplicaFactor, "data-tier replica factor: member k (0-based) of shard s is dbserver id s+1+k*shards; >1 routes through the epoch-stamped view so a promoted backup takes over its shard's traffic")
}

// Groups numbers the replica groups of a data tier of the given shard count,
// each in promotion order: member k (0-based) of shard s (0-based) is
// DBServer(s+1+k*shards), so the boot primaries keep the identities
// DBServer(1..shards) they have on an unreplicated tier. replicas is a
// resolved ReplicaFactor, at least 1.
func Groups(shards, replicas int) [][]id.NodeID {
	groups := make([][]id.NodeID, shards)
	for s := range groups {
		for k := 0; k < replicas; k++ {
			groups[s] = append(groups[s], id.DBServer(s+1+k*shards))
		}
	}
	return groups
}

// engineConfig is the engine configuration of a resolved t.
func (t Tuning) engineConfig(self id.NodeID) xadb.Config {
	return xadb.Config{Self: self, LockTimeout: t.LockTimeout}
}

// backupConfig overlays t on cfg.
func (t Tuning) backupConfig(cfg repl.BackupConfig) repl.BackupConfig {
	cfg.HeartbeatInterval, cfg.SuspectTimeout = t.HeartbeatInterval, t.SuspectTimeout
	return cfg
}

// appConfig overlays a resolved t on cfg.
func (t Tuning) appConfig(cfg core.AppServerConfig) core.AppServerConfig {
	cfg.RetainSlots = t.RetainSlots
	cfg.Workers = t.Workers
	cfg.HeartbeatInterval, cfg.SuspectTimeout = t.HeartbeatInterval, t.SuspectTimeout
	return cfg
}

// DataNodeConfig describes one serving database server.
type DataNodeConfig struct {
	// Self identifies the server.
	Self id.NodeID
	// AppServers is the middle tier.
	AppServers []id.NodeID
	// Group is Self's replica group in promotion order, Self included. The
	// server streams its log to the other members; with fewer than two
	// members it is unreplicated and no streamer exists.
	Group []id.NodeID
	// Endpoint is the server's network attachment.
	Endpoint transport.Endpoint
	// Store is the server's stable storage.
	Store *stablestore.Store
	// Tuning is the deployment's tuning, resolved here.
	Tuning Tuning
	// Recovery marks a start over a log that has content — a restart or a
	// promotion: the server announces [Ready], a replicated one primes its
	// stream with the whole log so backups resync from scratch, and Seed is
	// not applied.
	Recovery bool
	// Epoch is the shard epoch served at: 1 (also for 0) at boot, the
	// promotion epoch for a promoted backup.
	Epoch uint64
	// Seed is the initial data of a first start.
	Seed []kv.Write
	// Publish, if set, receives the node after it is built and before it
	// starts: once the server announces [Ready] or serves a Decide a client
	// can return, and whatever the caller looks the node up in must hold it
	// by then.
	Publish func(*DataNode)
}

// DataNode is a serving database server.
type DataNode struct {
	Server *core.DataServer
	Engine *xadb.Engine
	// Streamer is nil on an unreplicated server.
	Streamer *repl.Streamer
}

// Stop stops the server and its replication stream.
func (n *DataNode) Stop() {
	n.Server.Stop()
	if n.Streamer != nil {
		n.Streamer.Stop()
	}
}

// StartDataNode opens the engine over cfg.Store (running crash recovery),
// hooks the replication stream into its log when the server has group peers,
// seeds a first start, and starts the server.
func StartDataNode(cfg DataNodeConfig) (*DataNode, error) {
	if cfg.Endpoint == nil || cfg.Store == nil {
		return nil, errors.New("deploy: a data node needs an Endpoint and a Store")
	}
	t := cfg.Tuning.Resolve()

	xcfg := t.engineConfig(cfg.Self)
	var streamer *repl.Streamer
	if peers := others(cfg.Group, cfg.Self); len(peers) > 0 {
		streamer = repl.NewStreamer(repl.StreamerConfig{
			Self:    cfg.Self,
			Backups: peers,
			Send: func(to id.NodeID, p msg.Payload) error {
				return cfg.Endpoint.Send(msg.Envelope{To: to, Payload: p})
			},
			HeartbeatInterval: t.HeartbeatInterval,
		})
		xcfg.Replicate = streamer.Replicate
	}
	engine, err := xadb.Open(cfg.Store, xcfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: open engine %s: %w", cfg.Self, err)
	}
	if streamer != nil {
		// The stream's identity is the engine's incarnation.
		streamer.SetInc(engine.Incarnation())
		if cfg.Recovery {
			recs, err := wal.New(cfg.Store).Records()
			if err != nil {
				return nil, fmt.Errorf("deploy: prime stream %s: %w", cfg.Self, err)
			}
			streamer.Prime(recs)
		}
	}
	if !cfg.Recovery && len(cfg.Seed) > 0 {
		engine.Seed(cfg.Seed)
	}
	srv, err := core.NewDataServer(core.DataServerConfig{
		Self:       cfg.Self,
		AppServers: cfg.AppServers,
		Engine:     engine,
		Endpoint:   cfg.Endpoint,
		Recovery:   cfg.Recovery,
		Repl:       streamer,
		Epoch:      cfg.Epoch,
	})
	if err != nil {
		return nil, err
	}
	n := &DataNode{Server: srv, Engine: engine, Streamer: streamer}
	if cfg.Publish != nil {
		cfg.Publish(n)
	}
	if streamer != nil {
		streamer.Start()
	}
	srv.Start()
	return n, nil
}

// others returns group without self.
func others(group []id.NodeID, self id.NodeID) []id.NodeID {
	var out []id.NodeID
	for _, m := range group {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// BackupConfig describes one shard backup.
type BackupConfig struct {
	// BackupConfig carries the backup's identity, shard, group, application
	// servers, endpoint and store, and optionally a detector, a drain oracle
	// and OnPromote. Its HeartbeatInterval and SuspectTimeout come from
	// Tuning and its TakeOver is the data node started here.
	repl.BackupConfig
	// Tuning is the deployment's tuning; the promoted server runs it too.
	Tuning Tuning
	// View, if set, is the replica view this process shares with its
	// application servers: the backup starts from the view's current owner
	// of the shard instead of the boot primary, and a promotion advances the
	// view once the promoted server is up, so traffic routed by the new
	// epoch finds it serving.
	View *placement.View
	// Publish is DataNodeConfig.Publish for the server a promotion starts.
	Publish func(*DataNode)
}

// StartBackup starts a backup applier that, on promotion, takes the shard
// over as a data node on the same endpoint and store (announcements sent
// after take-over still go out through it).
func StartBackup(cfg BackupConfig) *repl.Backup {
	rc := cfg.Tuning.backupConfig(cfg.BackupConfig)
	if cfg.View != nil {
		rc.InitPrimary, rc.InitEpoch = cfg.View.Primary(rc.Shard)
	}
	rc.TakeOver = func(epoch uint64) error {
		_, err := StartDataNode(DataNodeConfig{
			Self:       rc.Self,
			AppServers: rc.AppServers,
			Group:      rc.Group,
			Endpoint:   rc.Endpoint,
			Store:      rc.Store,
			Tuning:     cfg.Tuning,
			Recovery:   true,
			Epoch:      epoch,
			Publish:    cfg.Publish,
		})
		if err != nil {
			return err
		}
		if cfg.View != nil {
			cfg.View.Advance(rc.Shard, epoch, rc.Self)
		}
		return nil
	}
	b := repl.NewBackup(rc)
	b.Start()
	return b
}

// StartAppNode starts an application server: cfg carries its identity,
// membership, placement, endpoint and logic, and every field Tuning has a
// knob for is taken from t.
func StartAppNode(cfg core.AppServerConfig, t Tuning) (*core.AppServer, error) {
	srv, err := core.NewAppServer(t.Resolve().appConfig(cfg))
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

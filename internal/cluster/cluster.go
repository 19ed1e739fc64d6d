// Package cluster assembles full in-process deployments of the e-Transaction
// stack — m application servers, n database servers, k clients over one
// in-memory network — and provides the fault-injection controls and the
// correctness oracle the integration tests and experiments use.
//
// Failure model knobs follow the paper's Section 2: application servers and
// clients crash (and stay down — a majority of app servers must survive),
// database servers crash and recover with their stable storage intact.
//
// The processes themselves are started by internal/deploy, the same
// constructors the TCP binaries use, and tuned by the embedded deploy.Tuning:
// that type is where each knob's semantics and defaults are documented.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/placement"
	"etx/internal/rchan"
	"etx/internal/repl"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/xadb"
)

// Config parameterizes a deployment.
type Config struct {
	// AppServers is the middle-tier size (default 3: tolerate one crash with
	// a majority, as in the paper's analysis).
	AppServers int
	// DataServers is the database-tier size (default 1, the paper's setup).
	DataServers int
	// Shards splits the database tier into key-homed shards: it sets the
	// database-tier size (DataServers must be 0 or equal), installs keyed
	// placement on every application server, and seeds each database with
	// only the keys it owns. 0 keeps the paper's unsharded tier, where every
	// database receives the full seed image.
	Shards int
	// Placement overrides the partitioner for a sharded deployment (default
	// hash). Its Shards() must equal Shards.
	Placement placement.Policy
	// Clients is the front-tier size (default 1).
	Clients int
	// Net configures the in-memory network.
	Net transport.Options
	// Reliable wraps every endpoint in the reliable-channel layer
	// (retransmission + duplicate suppression). Required for correctness
	// whenever Net configures loss or duplication; harmless otherwise.
	Reliable bool
	// Retransmit is the reliable-channel resend period (default 25ms).
	Retransmit time.Duration
	// Logic is the business logic installed on every application server.
	Logic core.Logic
	// ForceLatency is the simulated fsync cost of database stable storage.
	ForceLatency time.Duration
	// Tuning holds the knobs shared with every other way of starting the
	// stack (the batching switch, retention, workers, lock and detector
	// timers, replica factor); deploy.Tuning documents each.
	deploy.Tuning
	// Seed is the initial content of every database.
	Seed []kv.Write
	// DBDetector, if set, overrides the failure detector each backup monitors
	// its replica group with (tests inject fd.Scripted for deterministic
	// promotions). Nil runs heartbeat detectors inside each group.
	DBDetector func(self id.NodeID) fd.Detector

	// Knobs forwarded to the processes (zero = package defaults).
	ResendInterval    time.Duration
	CleanInterval     time.Duration
	ComputeTimeout    time.Duration
	ClientBackoff     time.Duration
	ClientRebroadcast time.Duration
	ClientMaxInFlight int

	// Hooks, if set, supplies per-application-server instrumentation.
	Hooks func(self id.NodeID) *core.Hooks
	// Detector, if set, overrides the failure detector per app server.
	Detector func(self id.NodeID) fd.Detector
}

// dbNode is a database-tier node: its stable storage, which survives crashes,
// and what runs over it. serving is nil unless the node serves its shard (a
// boot or recovered primary, a promoted backup); backup is nil unless the node
// runs (or, once promoted, ran) as a shard backup. A crash clears both.
type dbNode struct {
	store   *stablestore.Store
	serving *deploy.DataNode
	backup  *repl.Backup
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config

	Net *transport.MemNetwork

	appIDs    []id.NodeID
	dbIDs     []id.NodeID
	clientIDs []id.NodeID
	pmap      *placement.Map

	// view and groups exist only on replicated deployments (ReplicaFactor >
	// 1). The single View instance is shared by every application server and
	// the cluster itself, so routing and the oracle always agree on shard
	// ownership.
	view   *placement.View
	groups [][]id.NodeID

	mu      sync.Mutex
	apps    map[id.NodeID]*core.AppServer
	dbs     map[id.NodeID]*dbNode
	clients map[id.NodeID]*core.Client

	replMu      sync.Mutex
	promotions  int
	promoteLats []time.Duration

	computedMu sync.Mutex
	computed   map[id.ResultID]bool // V.1 oracle: tries the logic computed

	stopOnce sync.Once
	stopWG   sync.WaitGroup
}

// New builds and starts a deployment.
func New(cfg Config) (*Cluster, error) {
	if cfg.AppServers <= 0 {
		cfg.AppServers = 3
	}
	if cfg.Shards > 0 {
		if cfg.DataServers > 0 && cfg.DataServers != cfg.Shards {
			return nil, fmt.Errorf("cluster: DataServers (%d) conflicts with Shards (%d)",
				cfg.DataServers, cfg.Shards)
		}
		cfg.DataServers = cfg.Shards
	}
	if cfg.DataServers <= 0 {
		cfg.DataServers = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Logic == nil {
		return nil, errors.New("cluster: Logic is required")
	}
	if (cfg.Net.LossProb > 0 || cfg.Net.DupProb > 0) && !cfg.Reliable {
		return nil, errors.New("cluster: a lossy/duplicating network requires Reliable channels")
	}
	cfg.Tuning = cfg.Tuning.Resolve()
	c := &Cluster{
		cfg:      cfg,
		Net:      transport.NewMemNetwork(cfg.Net),
		apps:     make(map[id.NodeID]*core.AppServer),
		dbs:      make(map[id.NodeID]*dbNode),
		clients:  make(map[id.NodeID]*core.Client),
		computed: make(map[id.ResultID]bool),
	}
	for i := 1; i <= cfg.AppServers; i++ {
		c.appIDs = append(c.appIDs, id.AppServer(i))
	}
	for i := 1; i <= cfg.DataServers; i++ {
		c.dbIDs = append(c.dbIDs, id.DBServer(i))
	}
	for i := 1; i <= cfg.Clients; i++ {
		c.clientIDs = append(c.clientIDs, id.Client(i))
	}

	// Every deployment gets a placement map (so the keyed Tx API always
	// works); only Shards > 0 additionally switches on per-shard seeding.
	policy := cfg.Placement
	if policy == nil {
		policy = placement.Hash(cfg.DataServers)
	}
	pmap, err := placement.NewMap(policy, c.dbIDs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.pmap = pmap

	// Backups start before the primaries so the seed snapshot streams
	// straight into live appliers.
	if cfg.ReplicaFactor > 1 {
		c.groups = deploy.Groups(cfg.DataServers, cfg.ReplicaFactor)
		c.view, err = placement.NewView(c.groups)
		if err != nil {
			return nil, fmt.Errorf("cluster: replica view: %w", err)
		}
		for s, group := range c.groups {
			for _, m := range group[1:] {
				if err := c.startBackup(s, m, stablestore.New(cfg.ForceLatency)); err != nil {
					c.Stop()
					return nil, err
				}
			}
		}
	}

	for _, dbID := range c.dbIDs {
		if err := c.startDB(dbID, stablestore.New(cfg.ForceLatency), false); err != nil {
			c.Stop()
			return nil, err
		}
	}
	for _, appID := range c.appIDs {
		if err := c.startApp(appID); err != nil {
			c.Stop()
			return nil, err
		}
	}
	for _, clID := range c.clientIDs {
		if err := c.startClient(clID); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// loggedLogic wraps the configured logic to record computed tries (V.1).
type loggedLogic struct {
	c     *Cluster
	inner core.Logic
}

// Compute implements core.Logic.
func (l *loggedLogic) Compute(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
	l.c.computedMu.Lock()
	l.c.computed[tx.RID()] = true
	l.c.computedMu.Unlock()
	return l.inner.Compute(ctx, tx, req)
}

// attach connects a node to the network, adding the reliable-channel layer
// when configured.
func (c *Cluster) attach(node id.NodeID) (transport.Endpoint, error) {
	ep, err := c.Net.Attach(node)
	if err != nil {
		return nil, fmt.Errorf("cluster: attach %s: %w", node, err)
	}
	if c.cfg.Reliable {
		return rchan.Wrap(ep, c.cfg.Retransmit), nil
	}
	return ep, nil
}

// startDB starts a serving database server on its (surviving) store.
func (c *Cluster) startDB(dbID id.NodeID, store *stablestore.Store, recovery bool) error {
	ep, err := c.attach(dbID)
	if err != nil {
		return err
	}
	// A boot primary serves at epoch 1; a recovered server that is still its
	// shard's current primary re-serves at the view's current epoch.
	epoch := uint64(1)
	var group []id.NodeID
	if c.view != nil {
		if sh, ok := c.view.ShardOf(dbID); ok {
			group = c.groups[sh]
			if cur, e := c.view.Primary(sh); cur == dbID {
				epoch = e
			}
		}
	}
	_, err = deploy.StartDataNode(deploy.DataNodeConfig{
		Self:       dbID,
		AppServers: c.appIDs,
		Group:      group,
		Endpoint:   ep,
		Store:      store,
		Tuning:     c.cfg.Tuning,
		Recovery:   recovery,
		Epoch:      epoch,
		Seed:       c.seedFor(dbID),
		Publish:    c.publishDB(dbID, store),
	})
	return err
}

// publishDB records a database server about to start serving, so the
// caller's next Engine/DataServer lookup finds it.
func (c *Cluster) publishDB(dbID id.NodeID, store *stablestore.Store) func(*deploy.DataNode) {
	return func(n *deploy.DataNode) {
		c.mu.Lock()
		c.dbNodeLocked(dbID, store).serving = n
		c.mu.Unlock()
	}
}

// dbNodeLocked returns dbID's record, created over store on first use.
func (c *Cluster) dbNodeLocked(dbID id.NodeID, store *stablestore.Store) *dbNode {
	d := c.dbs[dbID]
	if d == nil {
		d = &dbNode{store: store}
		c.dbs[dbID] = d
	}
	return d
}

// startBackup starts (or restarts, with its surviving store) the backup
// applier of shard sh on node self.
func (c *Cluster) startBackup(sh int, self id.NodeID, store *stablestore.Store) error {
	ep, err := c.attach(self)
	if err != nil {
		return err
	}
	var det fd.Detector
	if c.cfg.DBDetector != nil {
		det = c.cfg.DBDetector(self)
	}
	// The in-memory network can prove the deposed primary's stream tail has
	// fully landed (nothing in flight on the link, nothing unread in the
	// mailbox), making the promotion drain exact. The raw endpoint implements
	// PendingCounter; the reliable-channel wrapper does not, and falls back
	// to the quiet-period drain.
	var drained func(id.NodeID) bool
	if pc, ok := ep.(transport.PendingCounter); ok {
		drained = func(old id.NodeID) bool {
			return c.Net.InFlightFrom(old, self) == 0 && pc.Pending() == 0
		}
	}
	b := deploy.StartBackup(deploy.BackupConfig{
		BackupConfig: repl.BackupConfig{
			Self:       self,
			Shard:      sh,
			Group:      c.groups[sh],
			AppServers: c.appIDs,
			Endpoint:   ep,
			Store:      store,
			Detector:   det,
			Drained:    drained,
			OnPromote: func(lat time.Duration) {
				c.replMu.Lock()
				c.promotions++
				c.promoteLats = append(c.promoteLats, lat)
				c.replMu.Unlock()
			},
		},
		Tuning:  c.cfg.Tuning,
		View:    c.view,
		Publish: c.publishDB(self, store),
	})
	c.mu.Lock()
	c.dbNodeLocked(self, store).backup = b
	c.mu.Unlock()
	return nil
}

func (c *Cluster) startApp(appID id.NodeID) error {
	ep, err := c.attach(appID)
	if err != nil {
		return err
	}
	var hooks *core.Hooks
	if c.cfg.Hooks != nil {
		hooks = c.cfg.Hooks(appID)
	}
	var det fd.Detector
	if c.cfg.Detector != nil {
		det = c.cfg.Detector(appID)
	}
	srv, err := deploy.StartAppNode(core.AppServerConfig{
		Self:           appID,
		AppServers:     c.appIDs,
		DataServers:    c.dbIDs,
		Placement:      c.pmap,
		View:           c.view,
		Endpoint:       ep,
		Logic:          &loggedLogic{c: c, inner: c.cfg.Logic},
		Detector:       det,
		ResendInterval: c.cfg.ResendInterval,
		CleanInterval:  c.cfg.CleanInterval,
		ComputeTimeout: c.cfg.ComputeTimeout,
		Hooks:          hooks,
	}, c.cfg.Tuning)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.apps[appID] = srv
	c.mu.Unlock()
	return nil
}

func (c *Cluster) startClient(clID id.NodeID) error {
	ep, err := c.attach(clID)
	if err != nil {
		return err
	}
	cl, err := core.NewClient(core.ClientConfig{
		Self:        clID,
		AppServers:  c.appIDs,
		Endpoint:    ep,
		Backoff:     c.cfg.ClientBackoff,
		Rebroadcast: c.cfg.ClientRebroadcast,
		MaxInFlight: c.cfg.ClientMaxInFlight,
		// Liveness evidence: a try that burns half its deadline dumps every
		// live application server's view of it next to the client's own
		// in-flight table (the client logs that itself).
		SlowTry: func(rid id.ResultID, waited time.Duration) {
			c.mu.Lock()
			apps := make([]*core.AppServer, 0, len(c.apps))
			for _, a := range c.apps {
				apps = append(apps, a)
			}
			srvs := make([]*core.DataServer, 0, len(c.dbs))
			for _, n := range c.dbs {
				if n.serving != nil {
					srvs = append(srvs, n.serving.Server)
				}
			}
			c.mu.Unlock()
			for _, a := range apps {
				log.Printf("cluster: liveness: %s", a.DebugTry(rid))
			}
			// The database tier's view: lock contention and speculation
			// counters tell a stuck try blocked on data apart from one
			// blocked in the commit path.
			for _, srv := range srvs {
				log.Printf("cluster: liveness: %s", srv.DebugStats())
			}
		},
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.clients[clID] = cl
	c.mu.Unlock()
	return nil
}

// Client returns the i-th client (1-based).
func (c *Cluster) Client(i int) *core.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[id.Client(i)]
}

// App returns the i-th application server (1-based), or nil once CrashApp
// took it down (application servers do not recover in the model).
func (c *Cluster) App(i int) *core.AppServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.apps[id.AppServer(i)]
}

// Engine returns the i-th database engine (1-based). It is nil exactly while
// the node is not serving: between CrashDB and the RecoverDB (or promotion)
// that restarts it, and for a backup that was never promoted. A restarted
// node is visible here before it sends or serves its first message, so a
// result the client received never outruns the lookup.
func (c *Cluster) Engine(i int) *xadb.Engine {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.dbs[id.DBServer(i)]; ok && n.serving != nil {
		return n.serving.Engine
	}
	return nil
}

// DataServer returns the i-th database server front end (1-based), nil
// under the same conditions as Engine — tests assert on its execution-mode
// counters.
func (c *Cluster) DataServer(i int) *core.DataServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.dbs[id.DBServer(i)]; ok && n.serving != nil {
		return n.serving.Server
	}
	return nil
}

// AppIDs returns the middle-tier membership.
func (c *Cluster) AppIDs() []id.NodeID { return append([]id.NodeID(nil), c.appIDs...) }

// DBIDs returns the database-tier membership.
func (c *Cluster) DBIDs() []id.NodeID { return append([]id.NodeID(nil), c.dbIDs...) }

// Placement returns the deployment's key-routing map.
func (c *Cluster) Placement() *placement.Map { return c.pmap }

// View returns the replica view of the data tier (nil when ReplicaFactor=1).
func (c *Cluster) View() *placement.View { return c.view }

// Groups returns the replica groups in promotion order (nil when
// unreplicated).
func (c *Cluster) Groups() [][]id.NodeID {
	out := make([][]id.NodeID, len(c.groups))
	for i, g := range c.groups {
		out[i] = append([]id.NodeID(nil), g...)
	}
	return out
}

// Backup returns the i-th node's backup applier (1-based node index; nil if
// the node is not running as a backup).
func (c *Cluster) Backup(i int) *repl.Backup {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.dbs[id.DBServer(i)]; ok {
		return n.backup
	}
	return nil
}

// Streamer returns the i-th node's replication streamer (1-based; nil unless
// the node is a serving primary on a replicated deployment).
func (c *Cluster) Streamer(i int) *repl.Streamer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.dbs[id.DBServer(i)]; ok && n.serving != nil {
		return n.serving.Streamer
	}
	return nil
}

// Promotions reports how many promotions completed and their latencies
// (suspicion observed -> NewPrimary announced).
func (c *Cluster) Promotions() (int, []time.Duration) {
	c.replMu.Lock()
	defer c.replMu.Unlock()
	return c.promotions, append([]time.Duration(nil), c.promoteLats...)
}

// StaleRejects sums the application servers' epoch-guard rejections — data-
// tier messages dropped because their sender had been deposed.
func (c *Cluster) StaleRejects() uint64 {
	c.mu.Lock()
	apps := make([]*core.AppServer, 0, len(c.apps))
	for _, a := range c.apps {
		apps = append(apps, a)
	}
	c.mu.Unlock()
	var n uint64
	for _, a := range apps {
		n += a.Stats().StaleRejects
	}
	return n
}

// Sharded reports whether the database tier is key-sharded (per-shard
// seeding, keyed routing as the intended data surface).
func (c *Cluster) Sharded() bool { return c.cfg.Shards > 0 }

// seedFor returns the portion of the configured seed that dbID owns: the
// full image on an unsharded tier, the home-shard subset on a sharded one.
func (c *Cluster) seedFor(dbID id.NodeID) []kv.Write {
	if !c.Sharded() {
		return c.cfg.Seed
	}
	var out []kv.Write
	for _, w := range c.cfg.Seed {
		if c.pmap.Home(w.Key) == dbID {
			out = append(out, w)
		}
	}
	return out
}

// CrashApp crashes the i-th application server: it is isolated from the
// network immediately; its goroutines are stopped in the background (they
// can no longer affect the world). Application servers do not recover in the
// paper's model.
func (c *Cluster) CrashApp(i int) {
	appID := id.AppServer(i)
	c.Net.Crash(appID)
	c.mu.Lock()
	srv := c.apps[appID]
	delete(c.apps, appID)
	c.mu.Unlock()
	if srv != nil {
		c.stopWG.Add(1)
		go func() {
			defer c.stopWG.Done()
			srv.Stop()
		}()
	}
}

// CrashDB crashes the i-th database-tier node — a serving primary or a shard
// backup — keeping its stable storage for a later RecoverDB.
func (c *Cluster) CrashDB(i int) {
	dbID := id.DBServer(i)
	c.Net.Crash(dbID)
	c.mu.Lock()
	if n := c.dbs[dbID]; n != nil {
		stopped := *n
		n.serving, n.backup = nil, nil
		c.stopWG.Add(1)
		go func() {
			defer c.stopWG.Done()
			stopped.stop()
		}()
	}
	c.mu.Unlock()
}

// stop stops whatever runs on the node.
func (n *dbNode) stop() {
	if n.serving != nil {
		n.serving.Stop()
	}
	if n.backup != nil {
		n.backup.Stop()
	}
}

// RecoverDB restarts the i-th database-tier node on its surviving stable
// storage. On an unreplicated deployment — or when the node is still its
// shard's current primary — the fresh server runs recovery and announces
// [Ready]. A node whose shard was promoted away from it (or that was a
// backup all along) rejoins as a backup: it adopts the current primary's
// stream, which resyncs its log from scratch.
func (c *Cluster) RecoverDB(i int) error {
	dbID := id.DBServer(i)
	c.mu.Lock()
	n := c.dbs[dbID]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: unknown database %s", dbID)
	}
	store := n.store
	if c.view != nil {
		if sh, ok := c.view.ShardOf(dbID); ok && !c.view.IsCurrent(dbID) {
			return c.startBackup(sh, dbID, store)
		}
	}
	return c.startDB(dbID, store, true)
}

// Retire drops per-request register and cache state on every live
// application server (the Section-5 garbage-collection extension). Only call
// it for requests whose results the client has delivered.
func (c *Cluster) Retire(req id.RequestKey, maxTry uint64) {
	c.mu.Lock()
	apps := make([]*core.AppServer, 0, len(c.apps))
	for _, a := range c.apps {
		apps = append(apps, a)
	}
	c.mu.Unlock()
	for _, a := range apps {
		a.Retire(req, maxTry)
	}
}

// Stop tears the whole deployment down.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		clients := c.clients
		apps := c.apps
		dbs := c.dbs
		c.clients = map[id.NodeID]*core.Client{}
		c.apps = map[id.NodeID]*core.AppServer{}
		c.dbs = map[id.NodeID]*dbNode{}
		c.mu.Unlock()
		for _, cl := range clients {
			cl.Stop()
		}
		for _, a := range apps {
			a.Stop()
		}
		for _, d := range dbs {
			d.stop()
		}
		c.Net.Close()
		c.stopWG.Wait()
	})
}

// --- correctness oracle ------------------------------------------------------

// OracleReport is the verdict of CheckProperties.
type OracleReport struct {
	Violations []string
}

// Ok reports whether no property was violated.
func (r OracleReport) Ok() bool { return len(r.Violations) == 0 }

// String lists the violations.
func (r OracleReport) String() string {
	if r.Ok() {
		return "all properties hold"
	}
	out := ""
	for _, v := range r.Violations {
		out += v + "\n"
	}
	return out
}

// CheckProperties asserts the paper's agreement and validity properties over
// the current state of the deployment:
//
//	A.1  every delivered result is committed by its participants: no
//	     database server that knows the try decided anything but commit,
//	     and — when the whole tier is up — at least one committed it
//	A.2  at most one try per logical request is committed anywhere
//	A.3  no two database servers decided differently on the same try
//	V.1  every delivered result belongs to a try the business logic computed
//
// A.1 is stated over the servers that know the try because commitment is
// routed to the try's participant set (the paper's dlist), not broadcast:
// on a sharded tier a single-shard commit legitimately exists on exactly
// one server. (T.1/T.2 are liveness: the tests assert them by bounded
// waiting; V.2 is enforced structurally in the engine and checked by its
// unit tests.)
func (c *Cluster) CheckProperties() OracleReport {
	var rep OracleReport

	c.mu.Lock()
	engines := make(map[id.NodeID]*xadb.Engine, len(c.dbs))
	for dbID, n := range c.dbs {
		if n.serving != nil {
			engines[dbID] = n.serving.Engine
		}
	}
	clients := make([]*core.Client, 0, len(c.clients))
	for _, cl := range c.clients {
		clients = append(clients, cl)
	}
	c.mu.Unlock()

	// Gather decided outcomes per try per database.
	type verdicts map[id.NodeID]msg.Outcome
	byTry := make(map[id.ResultID]verdicts)
	for dbID, e := range engines {
		for rid, o := range e.Outcomes() {
			v, ok := byTry[rid]
			if !ok {
				v = make(verdicts)
				byTry[rid] = v
			}
			v[dbID] = o
		}
	}

	// A.3: all verdicts for a try agree.
	tries := make([]id.ResultID, 0, len(byTry))
	for rid := range byTry {
		tries = append(tries, rid)
	}
	sort.Slice(tries, func(i, j int) bool { return tries[i].Less(tries[j]) })
	committedPerRequest := make(map[id.RequestKey][]id.ResultID)
	for _, rid := range tries {
		var first msg.Outcome
		firstSet := false
		anyCommit := false
		for _, o := range byTry[rid] {
			if !firstSet {
				first, firstSet = o, true
			} else if o != first {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("A.3 violated: databases disagree on %s", rid))
				break
			}
			if o == msg.OutcomeCommit {
				anyCommit = true
			}
		}
		if anyCommit {
			k := rid.Request()
			committedPerRequest[k] = append(committedPerRequest[k], rid)
		}
	}

	// A.2: at most one committed try per logical request.
	for k, rids := range committedPerRequest {
		if len(rids) > 1 {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("A.2 violated: request %s committed %d tries: %v", k, len(rids), rids))
		}
	}

	// A.1 + V.1 over every delivery of every client.
	c.computedMu.Lock()
	computed := make(map[id.ResultID]bool, len(c.computed))
	for rid := range c.computed {
		computed[rid] = true
	}
	c.computedMu.Unlock()
	allUp := len(engines) == len(c.dbIDs)
	// Snapshot every engine's outcomes once: Outcomes() clones its map, and
	// cloning per delivered result would make the oracle quadratic in the
	// run length.
	outcomes := make(map[id.NodeID]map[id.ResultID]msg.Outcome, len(engines))
	for dbID, e := range engines {
		outcomes[dbID] = e.Outcomes()
	}
	for _, cl := range clients {
		for _, d := range cl.Delivered() {
			// No server anywhere may have decided a delivered try as
			// anything but commit.
			known := false
			for dbID, outs := range outcomes {
				o, ok := outs[d.RID]
				if !ok {
					continue
				}
				known = true
				if o != msg.OutcomeCommit {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("A.1 violated: delivered %s decided %s at %s", d.RID, o, dbID))
				}
			}
			if d.Participants != nil {
				// The delivered decision names its dlist: termination
				// acknowledged the commit at every one of these servers
				// before the result went out, so every live one must hold
				// it (commit records are forced before the ack, so
				// recovery cannot lose them). On a replicated tier the
				// dlist names boot-time shard identities; the commit is
				// held by whichever group member serves the shard now.
				for _, p := range d.Participants {
					cur := p
					if c.view != nil {
						cur = c.view.Current(p)
					}
					outs, up := outcomes[cur]
					if !up {
						continue
					}
					if o, ok := outs[d.RID]; !ok || o != msg.OutcomeCommit {
						rep.Violations = append(rep.Violations,
							fmt.Sprintf("A.1 violated: delivered %s not committed at participant %s (serving as %s)", d.RID, p, cur))
					}
				}
			} else if !known && allUp {
				// Decisions without a dlist (pre-dlist deliveries) fall
				// back to existence: with every database up, a delivered
				// result must be committed somewhere.
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("A.1 violated: delivered %s committed at no database server", d.RID))
			}
			if !computed[d.RID] {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("V.1 violated: delivered %s was never computed by any app server", d.RID))
			}
		}
	}
	return rep
}

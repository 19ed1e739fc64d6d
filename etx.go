// Package etx is a from-scratch Go implementation of the e-Transaction
// (exactly-once transaction) abstraction of Frølund & Guerraoui,
// "Implementing e-Transactions with Asynchronous Replication" (DSN 2000).
//
// An e-Transaction executes exactly once despite crashes of application
// servers, crashes and recoveries of database servers, client retries and
// unreliable failure detection. The package assembles the full three-tier
// architecture: replicated stateless application servers running the paper's
// protocol over write-once registers (consensus), XA-style transactional
// database engines with write-ahead logging and recovery, and clients that
// retry behind the scenes until a committed result arrives.
//
// The unit of interaction is the Client handle, which is concurrent and
// pipelined: any number of goroutines may have requests outstanding on one
// handle at the same time (Issue blocks, IssueAsync returns a Future,
// IssueBatch pipelines a slice), and every request commits exactly once. The
// same handle fronts both deployment styles:
//
//   - In-process simulation: New assembles the whole three-tier deployment in
//     one process and Cluster.Client hands out handles. Fault injection
//     (CrashAppServer, CrashDBServer, RecoverDBServer) and the CheckInvariants
//     oracle make this the right surface for tests and experiments.
//   - Multi-process TCP: Dial connects a handle to the cmd/etxappserver and
//     cmd/etxdbserver binaries over real sockets.
//
// Quick start (in-process):
//
//	c, err := etx.New(etx.Config{
//		Seed: map[string]int64{"acct/alice": 100},
//		Logic: func(ctx context.Context, tx *etx.Tx, req []byte) ([]byte, error) {
//			balance, err := tx.Add(ctx, 0, "acct/alice", -10)
//			if err != nil {
//				return nil, err
//			}
//			return []byte(fmt.Sprintf("balance %d", balance)), nil
//		},
//	})
//	...
//	cl := c.Client(1)
//	result, err := cl.Issue(ctx, []byte("withdraw"))
//
// Over TCP:
//
//	cl, err := etx.Dial(etx.DialConfig{AppServers: "1=:7101,2=:7102,3=:7103"})
//	...
//	result, err := cl.Issue(ctx, []byte("alice:-10"))
//
// Both styles are tuned by the same Tuning (Config.Tuning in-process, one
// shared flag set on the binaries); internal/deploy documents each knob.
//
// Either way the result is delivered exactly once: if an application server
// crashes mid-request the remaining replicas either finish its commitment or
// abort the attempt and re-execute, without ever double-charging and without
// the client's involvement.
package etx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"etx/internal/cluster"
	"etx/internal/core"
	"etx/internal/deploy"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/msg"
	"etx/internal/placement"
	"etx/internal/transport"
)

// Logic is the application's business logic — the paper's compute()
// function. It runs on an application server, manipulates the database tier
// through tx, and returns the result delivered to the client. It may run
// several times for one request (once per internal try), so all its effects
// must go through tx; a returned error aborts the current try and the
// request is retried. A try that only reads through GetKeyFast opens no
// branch and is answered without the replicated registers, so whether a
// try writes must follow from the request or from reads through GetKey,
// never from a GetKeyFast snapshot.
type Logic func(ctx context.Context, tx *Tx, request []byte) ([]byte, error)

// Tuning is the set of knobs every process of a deployment must agree on —
// the same struct the cmd/ binaries read from their flags, so an in-process
// deployment and a TCP one are tuned alike. See the field documentation of
// the aliased type.
type Tuning = deploy.Tuning

// Config describes a deployment. The zero value of every field has a
// sensible default.
type Config struct {
	// AppServers is the number of replicated application servers
	// (default 3; a majority must stay up).
	AppServers int
	// DataServers is the number of database servers (default 1).
	DataServers int
	// Shards splits the database tier into key-homed shards instead of
	// independent databases: it sets the tier size (leave DataServers 0 or
	// equal), routes the keyed Tx methods (GetKey, PutKey, AddKey, ...) by
	// hash placement, seeds each database with only the keys it owns, and
	// commits each request against only the shards it touched — a
	// single-shard transaction costs the same on 1 database as on 64.
	Shards int
	// Clients is the number of client processes (default 1).
	Clients int
	// Logic is the business logic. Required.
	Logic Logic
	// Seed is the databases' initial integer table (every database gets the
	// same image).
	Seed map[string]int64
	// NetworkLatency is the one-way message latency; NetworkJitter adds a
	// uniform random component.
	NetworkLatency time.Duration
	NetworkJitter  time.Duration
	// LossProbability and DupProbability inject message loss/duplication;
	// setting either enables the reliable-channel layer automatically.
	LossProbability float64
	DupProbability  float64
	// FsyncLatency is the simulated cost of a forced database log write.
	FsyncLatency time.Duration
	// Tuning holds the deployment-wide knobs — the batching switch, slot
	// retention, workers, lock and failure-detector timers, replica
	// factor — documented once, on the
	// aliased type. The zero value is the paper-exact configuration. The
	// fields are promoted (cfg.Workers reads and assigns); a literal sets
	// them as Tuning: etx.Tuning{Workers: 8}.
	Tuning
	// ClientBackoff is how long a client waits for the primary before
	// broadcasting its request to all application servers (default 150ms).
	ClientBackoff time.Duration
	// MaxInFlight caps the number of concurrently outstanding requests per
	// client; Issue and IssueAsync block for a slot when it is reached.
	// 0 means unlimited.
	MaxInFlight int
}

// Cluster is a running three-tier deployment.
type Cluster struct {
	inner *cluster.Cluster
	cfg   Config
}

// Errors returned by Tx operations and the invariant checker.
var (
	// ErrCheckFailed reports a violated CheckAtLeast guard; the databases
	// will refuse to commit the try (a user-level abort in the paper's
	// model).
	ErrCheckFailed = errors.New("etx: check failed")
	// ErrOpFailed reports a data operation the database rejected (lock
	// timeout, finished branch, ...). The try aborts and is retried.
	ErrOpFailed = errors.New("etx: operation failed")
)

// New builds and starts a deployment.
func New(cfg Config) (*Cluster, error) {
	if cfg.Logic == nil {
		return nil, errors.New("etx: Config.Logic is required")
	}
	seed := make([]kv.Write, 0, len(cfg.Seed))
	for k, v := range cfg.Seed {
		seed = append(seed, kv.Write{Key: k, Val: kv.EncodeInt(v)})
	}
	logic := cfg.Logic
	inner, err := cluster.New(cluster.Config{
		AppServers:  cfg.AppServers,
		DataServers: cfg.DataServers,
		Shards:      cfg.Shards,
		Clients:     cfg.Clients,
		Net: transport.Options{
			DefaultLatency: cfg.NetworkLatency,
			Jitter:         cfg.NetworkJitter,
			LossProb:       cfg.LossProbability,
			DupProb:        cfg.DupProbability,
		},
		Reliable:          cfg.LossProbability > 0 || cfg.DupProbability > 0,
		ForceLatency:      cfg.FsyncLatency,
		Tuning:            cfg.Tuning,
		Seed:              seed,
		ClientBackoff:     cfg.ClientBackoff,
		ClientRebroadcast: cfg.ClientBackoff,
		ClientMaxInFlight: cfg.MaxInFlight,
		Logic: core.LogicFunc(func(ctx context.Context, tx *core.Tx, req []byte) ([]byte, error) {
			return logic(ctx, &Tx{inner: tx}, req)
		}),
	})
	if err != nil {
		return nil, fmt.Errorf("etx: %w", err)
	}
	return &Cluster{inner: inner, cfg: cfg}, nil
}

// Close tears the deployment down.
func (c *Cluster) Close() { c.inner.Stop() }

// Client returns a handle on the i-th client process (1-based), or nil if
// unknown. The handle supports concurrent, pipelined requests; see Client.
// The cluster owns the underlying process, so Close on the handle is a
// no-op.
func (c *Cluster) Client(i int) *Client {
	cl := c.inner.Client(i)
	if cl == nil {
		return nil
	}
	return &Client{inner: cl}
}

// Issue submits a request on behalf of client (1-based) and blocks until the
// committed result is delivered — the paper's issue() primitive. Internally
// the request may go through several aborted tries; exactly one ever
// commits. Cancelling ctx models a client crash: the request then executes
// at most once and all database resources are eventually released.
//
// Issue is shorthand for Cluster.Client(client).Issue; the handle form also
// offers IssueAsync and IssueBatch.
func (c *Cluster) Issue(ctx context.Context, client int, request []byte) ([]byte, error) {
	cl := c.Client(client)
	if cl == nil {
		return nil, fmt.Errorf("etx: unknown client %d", client)
	}
	return cl.Issue(ctx, request)
}

// CrashAppServer crashes an application server (1-based). Application
// servers are stateless and do not recover in the model; the protocol
// tolerates any minority being down.
func (c *Cluster) CrashAppServer(i int) { c.inner.CrashApp(i) }

// CrashDBServer crashes a database server, preserving its stable storage.
func (c *Cluster) CrashDBServer(i int) { c.inner.CrashDB(i) }

// RecoverDBServer restarts a crashed database server: it replays its
// write-ahead log, restores in-doubt transaction branches, and announces
// recovery to the middle tier. On a replicated tier (ReplicaFactor > 1) a
// recovered server that lost its shard to a promoted backup rejoins the
// replica group as a backup of the new primary instead.
func (c *Cluster) RecoverDBServer(i int) error { return c.inner.RecoverDB(i) }

// ReplicationStats reports the replicated data tier's failover counters:
// how many promotions have happened, the mailbox-drain-to-takeover latency
// of each, and how many messages from deposed primaries the application
// servers rejected by epoch. All zero on ReplicaFactor=1 deployments.
func (c *Cluster) ReplicationStats() (promotions int, latencies []time.Duration, staleRejects uint64) {
	promotions, latencies = c.inner.Promotions()
	return promotions, latencies, c.inner.StaleRejects()
}

// ReadInt reads an integer key directly from a database's committed state
// (0 when the key is absent). Intended for inspection, not transactions.
func (c *Cluster) ReadInt(db int, key string) (int64, error) {
	e := c.inner.Engine(db)
	if e == nil {
		return 0, fmt.Errorf("etx: database %d is down or unknown", db)
	}
	return e.Store().GetInt(key)
}

// Read reads a raw key directly from a database's committed state.
func (c *Cluster) Read(db int, key string) ([]byte, bool) {
	e := c.inner.Engine(db)
	if e == nil {
		return nil, false
	}
	return e.Store().Get(key)
}

// CheckInvariants verifies the paper's agreement and validity properties
// over the deployment's current state (nil when everything holds). It is the
// library's built-in correctness oracle.
func (c *Cluster) CheckInvariants() error {
	if rep := c.inner.CheckProperties(); !rep.Ok() {
		return fmt.Errorf("etx: %s", rep)
	}
	return nil
}

// HomeDB returns the 1-based database server owning key's home shard —
// where ReadInt/Read find keys written through the keyed Tx methods.
func (c *Cluster) HomeDB(key string) int {
	return c.inner.Placement().Home(key).Index
}

// ShardOf returns the home shard of key under the hash placement a
// deployment of the given shard count uses. It lets clients partition their
// own workloads (e.g. one key per shard) without talking to a server.
func ShardOf(key string, shards int) int {
	return placement.Hash(shards).ShardFor(key)
}

// Tx is the transaction handle Logic manipulates the database tier through.
//
// Two addressing styles coexist. The keyed methods (GetKey, PutKey, AddKey,
// CheckKeyAtLeast) route each operation to the key's home shard through the
// deployment's placement and are the surface sharded deployments should use:
// a transaction that stays on one shard commits through the one-shard fast
// path no matter how many databases exist. The index methods (Get, Put, Add,
// CheckAtLeast) address a database by its 0-based position for logics that
// manage placement themselves. Either way, commitment involves exactly the
// databases the transaction touched.
type Tx struct {
	inner *core.Tx
}

// NumDBs returns the number of database servers.
func (t *Tx) NumDBs() int { return len(t.inner.DBs()) }

// HomeDB returns the 0-based database index owning key's home shard.
func (t *Tx) HomeDB(key string) int {
	home := t.inner.Home(key)
	for i, db := range t.inner.DBs() {
		if db == home {
			return i
		}
	}
	return 0
}

// GetKey reads key on its home shard, returning the raw value and its
// integer interpretation.
func (t *Tx) GetKey(ctx context.Context, key string) ([]byte, int64, error) {
	rep, err := t.inner.Do(ctx, key, msg.Op{Code: msg.OpGet})
	if err != nil {
		return nil, 0, err
	}
	if !rep.OK {
		return nil, 0, fmt.Errorf("%w: get %q: %s", ErrOpFailed, key, rep.Err)
	}
	return rep.Val, rep.Num, nil
}

// PutKey writes val to key on its home shard.
func (t *Tx) PutKey(ctx context.Context, key string, val []byte) error {
	rep, err := t.inner.Do(ctx, key, msg.Op{Code: msg.OpPut, Val: val})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%w: put %q: %s", ErrOpFailed, key, rep.Err)
	}
	return nil
}

// AddKey atomically adds delta to the integer at key on its home shard and
// returns the new value.
func (t *Tx) AddKey(ctx context.Context, key string, delta int64) (int64, error) {
	rep, err := t.inner.Do(ctx, key, msg.Op{Code: msg.OpAdd, Delta: delta})
	if err != nil {
		return 0, err
	}
	if !rep.OK {
		return 0, fmt.Errorf("%w: add %q: %s", ErrOpFailed, key, rep.Err)
	}
	return rep.Num, nil
}

// CheckKeyAtLeast installs a commitment-time guard on key's home shard: if
// the integer at key is below min, that shard refuses to commit the try and
// ErrCheckFailed is returned (see CheckAtLeast for the semantics).
func (t *Tx) CheckKeyAtLeast(ctx context.Context, key string, min int64) error {
	rep, err := t.inner.Do(ctx, key, msg.Op{Code: msg.OpCheckGE, Delta: min})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%w: %s", ErrCheckFailed, rep.Err)
	}
	return nil
}

func (t *Tx) db(i int) (id.NodeID, error) {
	dbs := t.inner.DBs()
	if i < 0 || i >= len(dbs) {
		return id.NodeID{}, fmt.Errorf("etx: database index %d out of range [0,%d)", i, len(dbs))
	}
	return dbs[i], nil
}

func (t *Tx) exec(ctx context.Context, dbIdx int, op msg.Op) (msg.OpResult, error) {
	db, err := t.db(dbIdx)
	if err != nil {
		return msg.OpResult{}, err
	}
	rep, err := t.inner.Exec(ctx, db, op)
	if err != nil {
		return msg.OpResult{}, err
	}
	return rep, nil
}

// Get reads key on database db, returning the raw value and its integer
// interpretation.
func (t *Tx) Get(ctx context.Context, db int, key string) ([]byte, int64, error) {
	rep, err := t.exec(ctx, db, msg.Op{Code: msg.OpGet, Key: key})
	if err != nil {
		return nil, 0, err
	}
	if !rep.OK {
		return nil, 0, fmt.Errorf("%w: get %q: %s", ErrOpFailed, key, rep.Err)
	}
	return rep.Val, rep.Num, nil
}

// Put writes val to key on database db.
func (t *Tx) Put(ctx context.Context, db int, key string, val []byte) error {
	rep, err := t.exec(ctx, db, msg.Op{Code: msg.OpPut, Key: key, Val: val})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%w: put %q: %s", ErrOpFailed, key, rep.Err)
	}
	return nil
}

// Add atomically adds delta to the integer at key on database db and returns
// the new value.
func (t *Tx) Add(ctx context.Context, db int, key string, delta int64) (int64, error) {
	rep, err := t.exec(ctx, db, msg.Op{Code: msg.OpAdd, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	if !rep.OK {
		return 0, fmt.Errorf("%w: add %q: %s", ErrOpFailed, key, rep.Err)
	}
	return rep.Num, nil
}

// CheckAtLeast installs a commitment-time guard: if the integer at key is
// below min, the database refuses to commit the try (votes no) and
// ErrCheckFailed is returned. Returning the error from Logic aborts the try;
// swallowing it and returning a normal result reproduces the paper's model
// of user-level aborts, where the databases refuse the result instead.
func (t *Tx) CheckAtLeast(ctx context.Context, db int, key string, min int64) error {
	rep, err := t.exec(ctx, db, msg.Op{Code: msg.OpCheckGE, Key: key, Delta: min})
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("%w: %s", ErrCheckFailed, rep.Err)
	}
	return nil
}

// SimulateWork models data-manipulation time spent at database db (useful
// for benchmarks and capacity planning).
func (t *Tx) SimulateWork(ctx context.Context, db int, d time.Duration) error {
	_, err := t.exec(ctx, db, msg.Op{Code: msg.OpSleep, Delta: int64(d)})
	return err
}

// GetKeyFast reads key's last committed value on its home shard through the
// read-only fast path: the shard answers from its committed snapshot at a
// batch boundary, without locks and without entering the commit path, and
// the shard is not enlisted in the try's participant set. The value is a
// consistent committed snapshot, not a serializable read inside the try —
// it may trail the try's own uncommitted writes. Use it for read-mostly
// logic that tolerates snapshot staleness; use GetKey for reads the try's
// serialization must cover. A try whose only operations are GetKeyFast
// reads costs no consensus at all: its result is returned straight from
// the logic.
func (t *Tx) GetKeyFast(ctx context.Context, key string) ([]byte, int64, error) {
	val, num, err := t.inner.GetFast(ctx, key)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: snap read %q: %s", ErrOpFailed, key, err)
	}
	return val, num, nil
}

package main

// rig.go builds, in this one process, the deployment the cmd/ binaries
// build, and is the only file of the end-to-end benchmark that names the
// program's packages: a change to a constructor, a config field or a Stats
// accessor used here must be preceded by a change to the benchmark. (The
// isolated layer probes in probes.go are the other, independent, coupling.)
// Everything it hands to the rest of the benchmark is plain Go types.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/placement"
	"etx/internal/rchan"
	"etx/internal/stablestore"
	"etx/internal/transport/tcptransport"
	"etx/internal/wal"
	"etx/internal/xadb"
)

const (
	numAccounts = 1024
	seedBalance = int64(1) << 40
	appServers  = 3
)

// accountKeys[i] is the store key of account i.
var accountKeys = func() []string {
	keys := make([]string, numAccounts)
	for i := range keys {
		keys[i] = "acct/" + strconv.Itoa(i)
	}
	return keys
}()

// spanFunc receives one span as the program reports it: the node that
// reported it, the try it belongs to, the span's name and its duration. The
// callback time is the span's end.
type spanFunc func(node string, client int, seq, try uint64, span string, d time.Duration)

type dbNode struct {
	path   string
	store  *stablestore.Store
	engine *xadb.Engine
	srv    *core.DataServer
}

type rig struct {
	apps   []*core.AppServer
	dbs    []*dbNode
	client *core.Client
	wires  []*tcptransport.Endpoint
	chans  []*rchan.Endpoint
}

// bankLogic is the business logic every workload runs. All amounts are 1;
// a transfer touches its two accounts in ascending order, so two transfers
// can never wait for each other's locks.
func bankLogic(ctx context.Context, tx *core.Tx, body []byte) ([]byte, error) {
	req, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	switch req.kind {
	case kindDeposit:
		bal, err := tx.Add(ctx, accountKeys[req.a], 1)
		if err != nil {
			return nil, err
		}
		return strconv.AppendInt(nil, bal, 10), nil
	case kindRead:
		_, bal, err := tx.GetFast(ctx, accountKeys[req.a])
		if err != nil {
			return nil, err
		}
		return strconv.AppendInt(nil, bal, 10), nil
	default: // kindTransfer: a pays b
		first, second, d := req.a, req.b, int64(-1)
		if first > second {
			first, second, d = second, first, 1
		}
		bal1, err := tx.Add(ctx, accountKeys[first], d)
		if err != nil {
			return nil, err
		}
		bal2, err := tx.Add(ctx, accountKeys[second], -d)
		if err != nil {
			return nil, err
		}
		if first != req.a {
			bal1, bal2 = bal2, bal1
		}
		out := strconv.AppendInt(nil, bal1, 10)
		return strconv.AppendInt(append(out, ','), bal2, 10), nil
	}
}

// buildRig starts 3 application servers, `shards` file-backed database
// servers with their journals under dir, and one client, each on its own
// loopback TCP endpoint under a reliable channel — the wiring and the
// settings of `etxappserver -adaptive -workers 32 -retain-slots 1024` and
// `etxdbserver -adaptive`. span, when not nil, is installed as
// core.Hooks.Span on the application servers and the client.
func buildRig(dir string, shards int, span spanFunc) (r *rig, err error) {
	r = &rig{}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()

	var apps, dbs []id.NodeID
	for i := 1; i <= appServers; i++ {
		apps = append(apps, id.AppServer(i))
	}
	for i := 1; i <= shards; i++ {
		dbs = append(dbs, id.DBServer(i))
	}
	clientID := id.Client(1)

	// Two-pass wiring: listen on port 0 everywhere, then install the book.
	book := make(map[id.NodeID]string)
	endpoint := make(map[id.NodeID]*rchan.Endpoint)
	for _, self := range append(append(append([]id.NodeID(nil), apps...), dbs...), clientID) {
		ep, err := tcptransport.Listen(tcptransport.Config{Self: self, Listen: "127.0.0.1:0"})
		if err != nil {
			return r, err
		}
		rc := rchan.Wrap(ep, 100*time.Millisecond)
		r.wires = append(r.wires, ep)
		r.chans = append(r.chans, rc)
		book[self] = ep.Addr()
		endpoint[self] = rc
	}
	for _, ep := range r.wires {
		ep.SetPeers(book)
	}

	policy := placement.Hash(shards)
	pmap, err := placement.NewMap(policy, dbs)
	if err != nil {
		return r, err
	}

	for s, self := range dbs {
		path := filepath.Join(dir, fmt.Sprintf("db%d.journal", s+1))
		store, err := stablestore.OpenFile(path, 0)
		if err != nil {
			return r, err
		}
		n := &dbNode{path: path, store: store}
		r.dbs = append(r.dbs, n)
		store.SetBatchWindow(500 * time.Microsecond)
		store.SetMaxBatch(64)
		store.SetAdaptive(true)
		if n.engine, err = xadb.Open(store, xadb.Config{Self: self}); err != nil {
			return r, err
		}
		var seed []kv.Write
		for _, key := range accountKeys {
			if policy.ShardFor(key) == s {
				seed = append(seed, kv.Write{Key: key, Val: kv.EncodeInt(seedBalance)})
			}
		}
		n.engine.Seed(seed)
		n.srv, err = core.NewDataServer(core.DataServerConfig{
			Self:       self,
			AppServers: apps,
			Engine:     n.engine,
			Endpoint:   endpoint[self],
			MaxBatch:   64,
		})
		if err != nil {
			return r, err
		}
		n.srv.Start()
	}

	hooksFor := func(self id.NodeID) *core.Hooks {
		if span == nil {
			return nil
		}
		node := self.String()
		return &core.Hooks{Span: func(rid id.ResultID, s core.Span, d time.Duration) {
			span(node, rid.Client.Index, rid.Seq, rid.Try, string(s), d)
		}}
	}
	for _, self := range apps {
		srv, err := core.NewAppServer(core.AppServerConfig{
			Self:            self,
			AppServers:      apps,
			DataServers:     dbs,
			Placement:       pmap,
			Endpoint:        endpoint[self],
			Logic:           core.LogicFunc(bankLogic),
			SuspectTimeout:  500 * time.Millisecond,
			Workers:         32,
			AdaptiveWindows: true,
			RetainSlots:     1024,
			Hooks:           hooksFor(self),
		})
		if err != nil {
			return r, err
		}
		srv.Start()
		r.apps = append(r.apps, srv)
	}

	r.client, err = core.NewClient(core.ClientConfig{
		Self:              clientID,
		AppServers:        apps,
		Endpoint:          endpoint[clientID],
		Backoff:           500 * time.Millisecond,
		DiscardDeliveries: true,
		Hooks:             hooksFor(clientID),
	})
	return r, err
}

// issue sends one request through the client handle and waits for its
// committed result.
func (r *rig) issue(ctx context.Context, req []byte) ([]byte, error) {
	return r.client.Issue(ctx, req)
}

// stop ends every goroutine of the deployment and closes the journals. It
// is safe on a partly built rig.
func (r *rig) stop() {
	if r.client != nil {
		r.client.Stop()
	}
	for _, a := range r.apps {
		a.Stop()
	}
	for _, n := range r.dbs {
		if n.srv != nil {
			n.srv.Stop()
		}
	}
	for _, rc := range r.chans {
		_ = rc.Close() // closing twice, or a closed listener, is harmless here
	}
	for _, n := range r.dbs {
		n.store.Sync()
		_ = n.store.CloseFile()
	}
}

// counters is one reading of every cumulative count the layers publish,
// summed over the nodes of a tier. LiveSlots is a level: the largest over
// the application servers.
type counters struct {
	Proposes, Instances, Rounds, ConsensusMsgs, FastPath, BatchOps, Resends, LiveSlots uint64

	FramesSent, BytesSent, WritevCalls, QueueDrops, ConnDrops uint64

	StaleRejects, ExecRetries uint64

	// LogWrites counts every record appended to a journal, Forced the
	// stable store's own force calls, Syncs the device syncs paid.
	LogWrites, Forced, Syncs, JournalBytes int64

	Acquires, LockWaits, LockTimeouts uint64
	LockWaitNs                        int64
	SpecExecs                         uint64
}

func (r *rig) snapshot() counters {
	var c counters
	for _, a := range r.apps {
		cs := a.ConsensusStats()
		c.Proposes += cs.Proposes
		c.Instances += cs.Instances
		c.Rounds += cs.Rounds
		c.ConsensusMsgs += cs.Messages
		c.FastPath += cs.FastPath
		c.BatchOps += cs.BatchOps
		c.Resends += cs.Resends
		c.LiveSlots = max(c.LiveSlots, cs.LiveSlots)
		as := a.Stats()
		c.StaleRejects += as.StaleRejects
		c.ExecRetries += as.ExecRetries
	}
	for _, ep := range r.wires {
		ws := ep.Stats()
		c.FramesSent += ws.FramesSent
		c.BytesSent += ws.BytesSent
		c.WritevCalls += ws.WritevCalls
		c.QueueDrops += ws.QueueDrops
		c.ConnDrops += ws.ConnDrops
	}
	for _, n := range r.dbs {
		c.Syncs += n.store.Syncs()
		c.Forced += n.store.ForcedWrites()
		c.LogWrites += n.store.TotalWrites()
		if st, err := os.Stat(n.path); err == nil {
			c.JournalBytes += st.Size()
		}
		ls := n.engine.LockStats()
		c.Acquires += ls.Acquires
		c.LockWaits += ls.Waits
		c.LockTimeouts += ls.Timeouts
		c.LockWaitNs += int64(ls.WaitTime)
		c.SpecExecs += n.engine.SpecStats().Execs
	}
	return c
}

// sub returns c - base for the cumulative counts; the level keeps c's value.
func (c counters) sub(base counters) counters {
	d := c
	d.Proposes -= base.Proposes
	d.Instances -= base.Instances
	d.Rounds -= base.Rounds
	d.ConsensusMsgs -= base.ConsensusMsgs
	d.FastPath -= base.FastPath
	d.BatchOps -= base.BatchOps
	d.Resends -= base.Resends
	d.FramesSent -= base.FramesSent
	d.BytesSent -= base.BytesSent
	d.WritevCalls -= base.WritevCalls
	d.QueueDrops -= base.QueueDrops
	d.ConnDrops -= base.ConnDrops
	d.StaleRejects -= base.StaleRejects
	d.ExecRetries -= base.ExecRetries
	d.Syncs -= base.Syncs
	d.Forced -= base.Forced
	d.LogWrites -= base.LogWrites
	d.JournalBytes -= base.JournalBytes
	d.Acquires -= base.Acquires
	d.LockWaits -= base.LockWaits
	d.LockTimeouts -= base.LockTimeouts
	d.LockWaitNs -= base.LockWaitNs
	d.SpecExecs -= base.SpecExecs
	return d
}

// balances waits until the database servers are quiet and reads every
// account from the live engines.
func (r *rig) balances() ([]int64, error) {
	for _, n := range r.dbs {
		n.srv.Drain(20*time.Millisecond, 2*time.Second)
	}
	return readBalances(placement.Hash(len(r.dbs)), func(s int) *xadb.Engine { return r.dbs[s].engine })
}

func readBalances(policy placement.Policy, engine func(shard int) *xadb.Engine) ([]int64, error) {
	out := make([]int64, numAccounts)
	for i, key := range accountKeys {
		v, err := engine(policy.ShardFor(key)).Store().GetInt(key)
		if err != nil {
			return nil, fmt.Errorf("account %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// recoverBalances reopens the journals a stopped rig left under dir, each in
// a fresh store and engine, and returns the balances recovery rebuilt, the
// number of log records it replayed and how long the replay took.
func recoverBalances(dir string, shards int) (bal []int64, records int, replay time.Duration, err error) {
	engines := make([]*xadb.Engine, shards)
	for s := range engines {
		t0 := time.Now()
		store, err := stablestore.OpenFile(filepath.Join(dir, fmt.Sprintf("db%d.journal", s+1)), 0)
		if err != nil {
			return nil, 0, 0, err
		}
		defer store.CloseFile()
		if engines[s], err = xadb.Open(store, xadb.Config{Self: id.DBServer(s + 1)}); err != nil {
			return nil, 0, 0, err
		}
		replay += time.Since(t0)
		records += wal.New(store).Len()
	}
	bal, err = readBalances(placement.Hash(shards), func(s int) *xadb.Engine { return engines[s] })
	return bal, records, replay, err
}

package main

// probes.go times each layer alone, from outside, through its public
// functions and with inputs shaped like the commit path's. Iteration counts
// are fixed, so a probe does the same work on every run. The probes are the
// benchmark's second coupling to the program, independent of rig.go.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"etx/internal/consensus"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/kv"
	"etx/internal/lockmgr"
	"etx/internal/msg"
	"etx/internal/rchan"
	"etx/internal/stablestore"
	"etx/internal/transport"
	"etx/internal/transport/tcptransport"
	"etx/internal/wal"
	"etx/internal/woregister"
	"etx/internal/xadb"
)

func runProbes(outDir string) ([]metric, error) {
	var out []metric
	for _, probe := range []func() ([]metric, error){
		probeCodec,
		func() ([]metric, error) { return probeLink("tcptransport", false) },
		func() ([]metric, error) { return probeLink("rchan", true) },
		probeConsensus, probeRegisters, probeEngine, probeLocks, probeWAL,
		func() ([]metric, error) { return probeStore(outDir) },
	} {
		ms, err := probe()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50 returns the median of ds in microseconds.
func p50(ds []time.Duration) float64 {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return us(ds[len(ds)/2])
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// inParallel runs op from `writers` goroutines, `each` times apiece, every
// call with an index of its own, and returns how long all of them took and
// the last error any saw.
func inParallel(writers, each int, op func(i int) error) (time.Duration, error) {
	errs := make(chan error, writers) // one slot per writer
	t0 := time.Now()
	for w := 0; w < writers; w++ {
		go func() {
			for i := w * each; i < (w+1)*each; i++ {
				if err := op(i); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var err error
	for w := 0; w < writers; w++ {
		if e := <-errs; e != nil {
			err = e
		}
	}
	return time.Since(t0), err
}

func probeRID(seq int) id.ResultID {
	return id.ResultID{Client: id.Client(1), Seq: uint64(seq), Try: 1}
}

// commitPathEnvelopes is one of each message a one-shard commit sends, and
// one batch envelope as the aggregator builds at depth 32.
func commitPathEnvelopes() []msg.Envelope {
	rid := probeRID(123456)
	db, app := id.DBServer(1), id.AppServer(1)
	dec := msg.Decision{Result: []byte("1099511627999"), Outcome: msg.OutcomeCommit, Participants: []id.NodeID{db}}
	var batch msg.Batch
	for i := 0; i < 32; i++ {
		batch.Msgs = append(batch.Msgs, msg.Prepare{RID: probeRID(i)})
	}
	payloads := []msg.Payload{
		msg.Request{RID: rid, Body: []byte("d517")},
		msg.Exec{RID: rid, CallID: 7, Op: msg.Op{Code: msg.OpAdd, Key: "acct/517", Delta: 1}},
		msg.ExecReply{RID: rid, CallID: 7, Rep: msg.OpResult{Num: 1099511627999, OK: true}, Inc: 1},
		msg.Prepare{RID: rid},
		msg.VoteMsg{RID: rid, V: msg.VoteYes, Inc: 1},
		msg.Decide{RID: rid, O: msg.OutcomeCommit},
		msg.AckDecide{RID: rid, O: msg.OutcomeCommit},
		msg.Result{RID: rid, Dec: dec},
		batch,
	}
	envs := make([]msg.Envelope, len(payloads))
	for i, p := range payloads {
		envs[i] = msg.Envelope{From: app, To: db, Payload: p}
	}
	return envs
}

func probeCodec() ([]metric, error) {
	const rounds = 20000
	envs := commitPathEnvelopes()
	n := rounds * len(envs)
	frames := make([][]byte, len(envs))
	var bytes int
	for i, env := range envs {
		b, err := msg.Encode(env)
		if err != nil {
			return nil, err
		}
		frames[i] = b
		bytes += len(b)
	}

	buf := make([]byte, 0, 4096)
	m0, t0 := mallocs(), time.Now()
	for r := 0; r < rounds; r++ {
		for _, env := range envs {
			if _, err := msg.AppendEncode(buf[:0], env); err != nil {
				return nil, err
			}
		}
	}
	encode := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, err := msg.Decode(f); err != nil {
				return nil, err
			}
		}
	}
	decode := time.Since(t0)
	allocs := mallocs() - m0
	return []metric{
		{"msg.encode_ns", float64(encode) / float64(n), "ns", n},
		{"msg.decode_ns", float64(decode) / float64(n), "ns", n},
		{"msg.bytes_per_envelope", float64(bytes) / float64(len(envs)), "B", len(envs)},
		{"msg.allocs_per_roundtrip", float64(allocs) / float64(n), "count", n},
	}, nil
}

// probeNet is a set of loopback TCP endpoints that know each other,
// optionally under reliable channels, as the deployment wires them.
type probeNet struct {
	wires []*tcptransport.Endpoint
	eps   []transport.Endpoint
}

func newProbeNet(ids []id.NodeID, reliable bool) (*probeNet, error) {
	n := &probeNet{}
	book := make(map[id.NodeID]string)
	for _, self := range ids {
		ep, err := tcptransport.Listen(tcptransport.Config{Self: self, Listen: "127.0.0.1:0"})
		if err != nil {
			n.close()
			return nil, err
		}
		n.wires = append(n.wires, ep)
		book[self] = ep.Addr()
		if reliable {
			n.eps = append(n.eps, rchan.Wrap(ep, 100*time.Millisecond))
		} else {
			n.eps = append(n.eps, ep)
		}
	}
	for _, ep := range n.wires {
		ep.SetPeers(book)
	}
	return n, nil
}

func (n *probeNet) close() {
	for _, ep := range n.eps {
		_ = ep.Close() // nothing to save on a probe's endpoints
	}
}

func (n *probeNet) framesSent() (total uint64) {
	for _, ep := range n.wires {
		total += ep.Stats().FramesSent
	}
	return total
}

// probeLink bounces one-frame messages between two endpoints: one at a time
// for the round-trip time, then 32 outstanding for the rate.
func probeLink(layer string, reliable bool) ([]metric, error) {
	const pings, streamed, window = 3000, 60000, 32
	a, b := id.AppServer(1), id.DBServer(1)
	net, err := newProbeNet([]id.NodeID{a, b}, reliable)
	if err != nil {
		return nil, err
	}
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for env := range net.eps[1].Recv() {
			_ = net.eps[1].Send(msg.Envelope{To: a, Payload: env.Payload}) // a closed endpoint ends the probe anyway
		}
	}()
	defer func() {
		net.close() // closing b ends the echo loop
		echo.Wait()
	}()

	send := func(i int) error {
		return net.eps[0].Send(msg.Envelope{To: b, Payload: msg.Prepare{RID: probeRID(i)}})
	}
	recv := func() error {
		select {
		case _, ok := <-net.eps[0].Recv():
			if ok {
				return nil
			}
			return fmt.Errorf("%s probe: endpoint closed", layer)
		case <-time.After(requestDeadline):
			return fmt.Errorf("%s probe: no echo", layer)
		}
	}
	rtts := make([]time.Duration, pings)
	for i := range rtts {
		t0 := time.Now()
		if err := send(i); err != nil {
			return nil, err
		}
		if err := recv(); err != nil {
			return nil, err
		}
		rtts[i] = time.Since(t0)
	}

	frames0, t0 := net.framesSent(), time.Now()
	for i := 0; i < streamed; i++ {
		if i >= window {
			if err := recv(); err != nil {
				return nil, err
			}
		}
		if err := send(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < window; i++ {
		if err := recv(); err != nil {
			return nil, err
		}
	}
	elapsed, frames := time.Since(t0), net.framesSent()-frames0
	out := []metric{{layer + ".rtt_us_p50", p50(rtts), "us", pings}}
	if reliable {
		// Each echo is two application messages; the rest is acknowledgements.
		return append(out, metric{"rchan.frames_per_msg", float64(frames) / (2 * streamed), "count", streamed}), nil
	}
	return append(out, metric{"tcptransport.stream_frames_per_s", streamed / elapsed.Seconds(), "1/s", streamed}), nil
}

// registerCluster is three consensus nodes over loopback TCP under reliable
// channels, wired the way an application server wires its own, with the
// wo-register layer on top: one instance per write, or cohorts.
type registerCluster struct {
	net      *probeNet
	nodes    []*consensus.Node
	regs     []*woregister.Registers
	inFlight atomic.Int64
	wg       sync.WaitGroup
}

func newRegisterCluster(cohorts bool) (*registerCluster, error) {
	peers := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	net, err := newProbeNet(peers, true)
	if err != nil {
		return nil, err
	}
	c := &registerCluster{net: net}
	for i, self := range peers {
		ep := net.eps[i]
		send := func(to id.NodeID, p msg.Payload) error { return ep.Send(msg.Envelope{To: to, Payload: p}) }
		det := fd.NewScripted()
		node, err := consensus.New(consensus.Config{Self: self, Peers: peers, Detector: det, Send: send})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		regs := woregister.New(node)
		if cohorts {
			regs, err = woregister.NewBatched(node, woregister.Options{
				CohortWindow: 100 * time.Microsecond, // the adaptive default
				Depth:        func() int { return int(c.inFlight.Load()) },
				Self:         self, Peers: peers, Detector: det, Send: send,
			})
			if err != nil {
				c.close()
				return nil, err
			}
		}
		c.regs = append(c.regs, regs)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for env := range ep.Recv() {
				if ops, ok := env.Payload.(msg.RegOps); ok {
					regs.EnqueueRemote(env.From, ops.Ops)
				} else {
					node.Handle(env.From, env.Payload)
				}
			}
		}()
	}
	return c, nil
}

func (c *registerCluster) close() {
	for _, r := range c.regs {
		r.Stop()
	}
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.close()
	c.wg.Wait()
}

func (c *registerCluster) stats() (proposes, messages uint64) {
	for _, n := range c.nodes {
		s := n.Stats()
		proposes += s.Proposes
		messages += s.Messages
	}
	return proposes, messages
}

// writeA writes register regA[seq] from the first node, the round-1
// coordinator, as a primary application server does.
func (c *registerCluster) writeA(seq int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	t0 := time.Now()
	_, err := c.regs[0].WriteA(ctx, probeRID(seq), id.AppServer(1))
	return time.Since(t0), err
}

func probeConsensus() ([]metric, error) {
	const writes = 2000
	c, err := newRegisterCluster(false)
	if err != nil {
		return nil, err
	}
	defer c.close()
	lat := make([]time.Duration, writes)
	for i := range lat {
		if lat[i], err = c.writeA(i); err != nil {
			return nil, err
		}
	}
	proposes, messages := c.stats()
	return []metric{
		{"consensus.propose_us_p50", p50(lat), "us", writes},
		{"consensus.msgs_per_propose", ratio(float64(messages), float64(proposes)), "count", writes},
	}, nil
}

func probeRegisters() ([]metric, error) {
	const sequential, concurrent, writers = 2000, 32000, 32
	c, err := newRegisterCluster(true)
	if err != nil {
		return nil, err
	}
	defer c.close()
	lat := make([]time.Duration, sequential)
	for i := range lat {
		if lat[i], err = c.writeA(i); err != nil {
			return nil, err
		}
	}

	proposes0, _ := c.stats()
	elapsed, err := inParallel(writers, concurrent/writers, func(i int) error {
		_, err := c.writeA(sequential + i)
		return err
	})
	if err != nil {
		return nil, err
	}
	proposes, _ := c.stats()
	return []metric{
		{"woregister.write_us_p50", p50(lat), "us", sequential},
		{"woregister.d32_writes_per_s", concurrent / elapsed.Seconds(), "1/s", concurrent},
		{"woregister.d32_ops_per_instance", ratio(concurrent, float64(proposes-proposes0)), "count", concurrent},
	}, nil
}

// commitBranch takes one deposit through the engine as the data server
// does: execute, vote, decide.
func commitBranch(e *xadb.Engine, seq int, key string) error {
	rid := probeRID(seq)
	if rep := e.Exec(context.Background(), rid, msg.Op{Code: msg.OpAdd, Key: key, Delta: 1}); !rep.OK {
		return fmt.Errorf("xadb probe: exec: %s", rep.Err)
	}
	if v := e.Vote(rid); v != msg.VoteYes {
		return fmt.Errorf("xadb probe: vote %s", v)
	}
	if o := e.Decide(rid, msg.OutcomeCommit); o != msg.OutcomeCommit {
		return fmt.Errorf("xadb probe: decided %s", o)
	}
	return nil
}

func probeEngine() ([]metric, error) {
	const sequential, concurrent, writers = 30000, 32000, 32
	e, err := xadb.Open(stablestore.New(0), xadb.Config{Self: id.DBServer(1)})
	if err != nil {
		return nil, err
	}
	var seed []kv.Write
	for _, key := range accountKeys {
		seed = append(seed, kv.Write{Key: key, Val: kv.EncodeInt(seedBalance)})
	}
	e.Seed(seed)
	t0 := time.Now()
	for i := 0; i < sequential; i++ {
		if err := commitBranch(e, i, accountKeys[i%numAccounts]); err != nil {
			return nil, err
		}
	}
	perCommit := time.Since(t0) / sequential

	elapsed, err := inParallel(writers, concurrent/writers, func(i int) error {
		return commitBranch(e, sequential+i, accountKeys[0])
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{"xadb.exec_vote_decide_us", us(perCommit), "us", sequential},
		{"xadb.hot32_commits_per_s", concurrent / elapsed.Seconds(), "1/s", concurrent},
	}, nil
}

func probeLocks() ([]metric, error) {
	const n = 200000
	m := lockmgr.New()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tx := probeRID(i)
		if err := m.Acquire(context.Background(), tx, accountKeys[i%numAccounts], lockmgr.Exclusive); err != nil {
			return nil, err
		}
		m.ReleaseAll(tx)
	}
	return []metric{{"lockmgr.acquire_release_ns", float64(time.Since(t0)) / n, "ns", n}}, nil
}

// commitRecords is the pair of records one committed deposit logs.
func commitRecords(seq int) []wal.Record {
	rid := probeRID(seq)
	return []wal.Record{
		{Type: wal.RecPrepared, RID: rid, Writes: []kv.Write{{Key: accountKeys[seq%numAccounts], Val: kv.EncodeInt(seedBalance + int64(seq))}}},
		{Type: wal.RecCommitted, RID: rid},
	}
}

func probeWAL() ([]metric, error) {
	const n = 100000
	var bytes int
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for _, rec := range commitRecords(i) {
			bytes += len(wal.Encode(rec))
		}
	}
	return []metric{
		{"wal.encode_ns", float64(time.Since(t0)) / (2 * n), "ns", 2 * n},
		{"wal.bytes_per_record", float64(bytes) / (2 * n), "B", 2 * n},
	}, nil
}

// probeStore forces log records to a journal file: one writer at a time for
// the cost of a force, then 32 writers under the deployment's group-commit
// settings for what sharing a force buys.
func probeStore(outDir string) ([]metric, error) {
	const sequential, concurrent, writers = 1500, 32000, 32
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := stablestore.OpenFile(filepath.Join(dir, "probe.journal"), 0)
	if err != nil {
		return nil, err
	}
	defer store.CloseFile()
	rec := wal.Encode(commitRecords(1)[0])
	lat := make([]time.Duration, sequential)
	for i := range lat {
		t0 := time.Now()
		store.Append("wal", rec, true)
		lat[i] = time.Since(t0)
	}

	store.SetBatchWindow(500 * time.Microsecond)
	store.SetMaxBatch(64)
	store.SetAdaptive(true)
	syncs0 := store.Syncs()
	elapsed, _ := inParallel(writers, concurrent/writers, func(int) error {
		store.Append("wal", rec, true)
		return nil
	})
	return []metric{
		{"stablestore.force_us_p50", p50(lat), "us", sequential},
		{"stablestore.d32_forces_per_s", concurrent / elapsed.Seconds(), "1/s", concurrent},
		{"stablestore.d32_forced_per_sync", ratio(concurrent, float64(store.Syncs()-syncs0)), "count", concurrent},
	}, nil
}

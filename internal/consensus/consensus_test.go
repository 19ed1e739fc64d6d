package consensus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// rig wires n consensus nodes over a MemNetwork.
type rig struct {
	t     *testing.T
	net   *transport.MemNetwork
	peers []id.NodeID
	nodes map[id.NodeID]*Node
	eps   map[id.NodeID]transport.Endpoint
	dets  map[id.NodeID]*fd.Scripted
	wg    sync.WaitGroup
	// hook, when set, sees every remote consensus send before the network
	// does; returning true drops the message. It runs on the sender's
	// goroutine, so a hook may also block to pin a schedule.
	hook atomic.Pointer[sendHook]
}

type sendHook func(from, to id.NodeID, p msg.Payload) (drop bool)

// setHook installs h (nil removes it).
func (r *rig) setHook(h sendHook) {
	if h == nil {
		r.hook.Store(nil)
		return
	}
	r.hook.Store(&h)
}

func newRig(t *testing.T, n int, opts transport.Options) *rig {
	t.Helper()
	return newRigWith(t, n, opts, 200*time.Microsecond)
}

func newRigWith(t *testing.T, n int, opts transport.Options, poll time.Duration) *rig {
	t.Helper()
	return newRigRetain(t, n, opts, poll, 0)
}

// newRigRetain is newRigWith with batch-log truncation enabled
// (Config.RetainSlots).
func newRigRetain(t *testing.T, n int, opts transport.Options, poll time.Duration, retain int) *rig {
	t.Helper()
	r := &rig{
		t:     t,
		net:   transport.NewMemNetwork(opts),
		nodes: make(map[id.NodeID]*Node),
		eps:   make(map[id.NodeID]transport.Endpoint),
		dets:  make(map[id.NodeID]*fd.Scripted),
	}
	for i := 1; i <= n; i++ {
		r.peers = append(r.peers, id.AppServer(i))
	}
	for _, p := range r.peers {
		p := p
		ep, err := r.net.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewScripted()
		node, err := New(Config{
			Self:        p,
			Peers:       r.peers,
			Detector:    det,
			Poll:        poll,
			RetainSlots: retain,
			Send: func(to id.NodeID, pl msg.Payload) error {
				if h := r.hook.Load(); h != nil && (*h)(p, to, pl) {
					return nil
				}
				return ep.Send(msg.Envelope{To: to, Payload: pl})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r.eps[p] = ep
		r.nodes[p] = node
		r.dets[p] = det
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for env := range ep.Recv() {
				node.Handle(env.From, env.Payload)
			}
		}()
	}
	t.Cleanup(func() {
		for _, nd := range r.nodes {
			nd.Stop()
		}
		r.net.Close()
		r.wg.Wait()
	})
	return r
}

// crash takes a node fully down: network crash plus consensus stop.
func (r *rig) crash(p id.NodeID) {
	r.net.Crash(p)
	r.nodes[p].Stop()
	for _, other := range r.peers {
		if other != p {
			r.dets[other].Set(p, true)
		}
	}
}

// key names batch-log slot n, the only keyspace an instance runs in.
func key(n uint64) msg.RegKey { return msg.SlotKey(n) }

func TestSingleProposerDecidesOwnValue(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, err := r.nodes[r.peers[0]].Propose(ctx, key(1), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello" {
		t.Fatalf("decided %q, want %q (validity: sole proposal must win)", v, "hello")
	}
}

func TestDecisionPropagatesToAllNodes(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.nodes[r.peers[1]].Propose(ctx, key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.peers {
		p := p
		deadline := time.Now().Add(3 * time.Second)
		for {
			if v, ok := r.nodes[p].Decided(key(1)); ok {
				if string(v) != "v" {
					t.Fatalf("%v decided %q, want v", p, v)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%v never learned the decision", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestConcurrentProposersAgree(t *testing.T) {
	r := newRig(t, 3, transport.Options{DefaultLatency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	k := key(1)
	results := make([][]byte, len(r.peers))
	var wg sync.WaitGroup
	for i, p := range r.peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.nodes[p].Propose(ctx, k, []byte(fmt.Sprintf("val-%d", i)))
			if err != nil {
				t.Errorf("%v: %v", p, err)
				return
			}
			results[i] = v
		}()
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("agreement violated: %q vs %q", results[0], results[i])
		}
	}
	// Validity: the decided value must be one of the proposals.
	ok := false
	for i := range r.peers {
		if string(results[0]) == fmt.Sprintf("val-%d", i) {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("decided value %q was never proposed", results[0])
	}
}

func TestDecidesAfterCoordinatorCrash(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	// Crash the round-1 coordinator before anyone proposes.
	r.crash(r.peers[0])
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := r.nodes[r.peers[1]].Propose(ctx, key(1), []byte("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "survivor" {
		t.Fatalf("decided %q", v)
	}
}

func TestSafeUnderFalseSuspicion(t *testing.T) {
	// Every node wrongly suspects everyone: rounds keep failing via nacks
	// until a coordinator round where suspicion is lifted. Safety must hold
	// throughout; to get termination we lift suspicions after a while.
	r := newRig(t, 3, transport.Options{})
	for _, p := range r.peers {
		for _, q := range r.peers {
			if p != q {
				r.dets[p].Set(q, true)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{})
	var v1, v2 []byte
	var err1, err2 error
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); v1, err1 = r.nodes[r.peers[0]].Propose(ctx, key(1), []byte("a")) }()
		go func() { defer wg.Done(); v2, err2 = r.nodes[r.peers[1]].Propose(ctx, key(1), []byte("b")) }()
		wg.Wait()
	}()
	time.Sleep(50 * time.Millisecond)
	for _, p := range r.peers {
		for _, q := range r.peers {
			r.dets[p].Clear(q)
		}
	}
	<-done
	if err1 != nil || err2 != nil {
		t.Fatalf("propose errors: %v / %v", err1, err2)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatalf("agreement violated under false suspicion: %q vs %q", v1, v2)
	}
}

func TestManyInstancesInParallel(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const instances = 50
	var wg sync.WaitGroup
	errs := make(chan error, instances*len(r.peers))
	for i := 0; i < instances; i++ {
		k := key(uint64(i + 1))
		want := []byte(fmt.Sprintf("i%d", i))
		// A random proposer per instance.
		proposer := r.peers[i%len(r.peers)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := r.nodes[proposer].Propose(ctx, k, want)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(v, want) {
				errs <- fmt.Errorf("instance %s: got %q want %q", k, v, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProposeOnDecidedInstanceReturnsDecision(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n0 := r.nodes[r.peers[0]]
	if _, err := n0.Propose(ctx, key(1), []byte("first")); err != nil {
		t.Fatal(err)
	}
	v, err := n0.Propose(ctx, key(1), []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "first" {
		t.Fatalf("write-once violated: second propose returned %q", v)
	}
}

func TestLatePartitionedNodeCatchesUp(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	late := r.peers[2]
	others := []id.NodeID{r.peers[0], r.peers[1]}
	r.net.Partition([]id.NodeID{late}, others)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.nodes[r.peers[0]].Propose(ctx, key(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.nodes[late].Decided(key(1)); ok {
		t.Fatal("partitioned node cannot have learned the decision")
	}
	r.net.Heal()
	// The late node proposes; the decided peers answer with the decision.
	v, err := r.nodes[late].Propose(ctx, key(1), []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v" {
		t.Fatalf("late node decided %q, want the established value", v)
	}
}

func TestWatchDeliversDecision(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n2 := r.nodes[r.peers[1]]
	reg := regKey(msg.RegD, 1)
	ch := n2.Watch(reg)
	if _, err := r.nodes[r.peers[0]].Propose(ctx, key(1), msg.EncodeRegOps([]msg.RegOp{{Reg: reg, Val: []byte("w")}})); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-ch:
		if string(v) != "w" {
			t.Fatalf("watch got %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch never fired")
	}
	// Watch after decision delivers immediately.
	select {
	case v := <-n2.Watch(reg):
		if string(v) != "w" {
			t.Fatalf("post-decision watch got %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("post-decision watch never fired")
	}
}

func TestKeysTracksSeenInstances(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n0 := r.nodes[r.peers[0]]
	if len(n0.Keys()) != 0 {
		t.Fatal("fresh node must have no keys")
	}
	for i := uint64(1); i <= 2; i++ {
		ops := []msg.RegOp{{Reg: regKey(msg.RegA, i), Val: []byte("a")}}
		if _, err := n0.Propose(ctx, key(i), msg.EncodeRegOps(ops)); err != nil {
			t.Fatal(err)
		}
	}
	ks := n0.Keys()
	if len(ks) != 2 {
		t.Fatalf("Keys() = %v, want the 2 registers and no slot", ks)
	}
	// Abandon drops a decided register (retirement).
	n0.Abandon(regKey(msg.RegA, 1))
	if _, ok := n0.Decided(regKey(msg.RegA, 1)); ok || len(n0.Keys()) != 1 {
		t.Fatalf("Abandon left the register behind: Keys() = %v", n0.Keys())
	}
}

// TestRegisterKeyedMessagesCreateNoInstance: registers are decided by the
// slots that carry them only. Propose refuses a register key, and an
// Estimate, Propose, CAck or CNack keyed by a register starts no instance
// and decides nothing.
func TestRegisterKeyedMessagesCreateNoInstance(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	n0 := r.nodes[r.peers[0]]
	reg := regKey(msg.RegA, 1)
	if _, err := n0.Propose(context.Background(), reg, []byte("v")); !errors.Is(err, ErrNotSlot) {
		t.Fatalf("Propose on %s returned %v, want ErrNotSlot", reg, err)
	}
	from := r.peers[1]
	for _, p := range []msg.Payload{
		msg.Estimate{Reg: reg, Round: 1, Est: []byte("v")},
		msg.Propose{Reg: reg, Round: 1, Val: []byte("v")},
		msg.CAck{Reg: reg, Round: 1},
		msg.CNack{Reg: reg, Round: 1},
	} {
		n0.Handle(from, p)
	}
	if st := n0.Stats(); st.Instances != 0 {
		t.Fatalf("%d instances started for register-keyed messages, want 0", st.Instances)
	}
	if _, ok := n0.Decided(reg); ok {
		t.Fatal("a register-keyed message decided the register")
	}
}

func TestStopUnblocksPropose(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	// Partition the proposer so the instance cannot finish.
	p := r.peers[0]
	r.net.Partition([]id.NodeID{p}, []id.NodeID{r.peers[1], r.peers[2]})
	errCh := make(chan error, 1)
	go func() {
		_, err := r.nodes[p].Propose(context.Background(), key(1), []byte("x"))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	r.nodes[p].Stop()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("got %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Propose never unblocked after Stop")
	}
}

func TestProposeCtxCancel(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	p := r.peers[0]
	r.net.Partition([]id.NodeID{p}, []id.NodeID{r.peers[1], r.peers[2]})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := r.nodes[p].Propose(ctx, key(1), []byte("x"))
	if err == nil {
		t.Fatal("Propose must fail when ctx expires without majority")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
}

func TestConfigValidation(t *testing.T) {
	good := Config{
		Self:     id.AppServer(1),
		Peers:    []id.NodeID{id.AppServer(1)},
		Send:     func(id.NodeID, msg.Payload) error { return nil },
		Detector: fd.NewScripted(),
	}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{},
		{Self: good.Self, Peers: good.Peers, Detector: good.Detector},                                    // no Send
		{Self: good.Self, Peers: good.Peers, Send: good.Send},                                            // no Detector
		{Self: good.Self, Peers: []id.NodeID{id.AppServer(2)}, Send: good.Send, Detector: good.Detector}, // Self not a peer
		{Self: good.Self, Peers: good.Peers, Send: good.Send, Detector: &fd.Perfect{}},                   // detector announces no transitions
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestNoGoroutinePerSlot: an instance is state on its node, not a goroutine
// of its own. A thousand undecided slots, each started by a peer's round-1
// estimate, leave the goroutine count where it was, and Stop takes the
// node's own goroutine with it.
func TestNoGoroutinePerSlot(t *testing.T) {
	peers := []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)}
	before := runtime.NumGoroutine()
	n, err := New(Config{
		Self:     peers[1],
		Peers:    peers,
		Detector: fd.NewScripted(),
		Send:     func(id.NodeID, msg.Payload) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const slots = 1000
	for s := uint64(1); s <= slots; s++ {
		n.Handle(peers[0], msg.Estimate{Reg: msg.SlotKey(s), Round: 1, Est: msg.EncodeRegOps(nil)})
	}
	if st := n.Stats(); st.Instances != slots {
		t.Fatalf("%d instances, want %d", st.Instances, slots)
	}
	if grew := runtime.NumGoroutine() - before; grew >= 10 {
		t.Fatalf("%d undecided slots added %d goroutines, want fewer than 10", slots, grew)
	}
	n.Stop()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before New", runtime.NumGoroutine(), before)
		}
	}
}

// TestAgreementUnderRandomizedSchedules runs many instances under jitter,
// random proposers and a mid-run crash of a minority, then asserts agreement
// and validity across all survivors for every instance.
func TestAgreementUnderRandomizedSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized schedule test skipped in -short mode")
	}
	const nodes = 5
	r := newRig(t, nodes, transport.Options{
		DefaultLatency: 100 * time.Microsecond,
		Jitter:         400 * time.Microsecond,
		Seed:           99,
	})
	rng := rand.New(rand.NewSource(5))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const instances = 30
	type out struct {
		inst int
		val  []byte
	}
	results := make(chan out, instances*nodes)
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		k := key(uint64(i + 1))
		// 1..3 random proposers per instance, never including node 5 (which
		// we will crash; a proposal stuck on a crashed node is legitimate).
		nProposers := 1 + rng.Intn(3)
		for j := 0; j < nProposers; j++ {
			p := r.peers[rng.Intn(nodes-1)]
			val := []byte(fmt.Sprintf("i%d-p%d", i, p.Index))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := r.nodes[p].Propose(ctx, k, val)
				if err != nil {
					t.Errorf("instance %d on %v: %v", i, p, err)
					return
				}
				results <- out{inst: i, val: v}
			}(i)
		}
	}
	// Crash one node (a minority of 5) while instances are running.
	time.Sleep(2 * time.Millisecond)
	r.crash(r.peers[4])

	wg.Wait()
	close(results)
	byInst := make(map[int][]byte)
	for o := range results {
		if prev, ok := byInst[o.inst]; ok {
			if !bytes.Equal(prev, o.val) {
				t.Fatalf("instance %d: agreement violated (%q vs %q)", o.inst, prev, o.val)
			}
		} else {
			byInst[o.inst] = o.val
		}
	}
	if len(byInst) != instances {
		t.Fatalf("only %d/%d instances decided", len(byInst), instances)
	}
}

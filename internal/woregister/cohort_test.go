package woregister

import (
	"context"
	"sync"
	"testing"
	"time"

	"etx/internal/consensus"
	"etx/internal/fd"
	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// batchedRig wires three batched Registers over a MemNetwork, with RegOps
// forwarding routed into the receiving server's sequencer — the full cohort
// path an application server runs.
type batchedRig struct {
	peers []id.NodeID
	nodes map[id.NodeID]*consensus.Node
	regs  map[id.NodeID]*Registers
	dets  map[id.NodeID]*fd.Scripted
}

// The optional depth sampler is installed on every server's sequencer
// (the in-flight depth core's application server samples).
func newBatchedRig(t *testing.T, depth ...func() int) *batchedRig {
	t.Helper()
	var depthFn func() int
	if len(depth) > 0 {
		depthFn = depth[0]
	}
	net := transport.NewMemNetwork(transport.Options{
		DefaultLatency: 100 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
	})
	r := &batchedRig{
		peers: []id.NodeID{id.AppServer(1), id.AppServer(2), id.AppServer(3)},
		nodes: make(map[id.NodeID]*consensus.Node),
		regs:  make(map[id.NodeID]*Registers),
		dets:  make(map[id.NodeID]*fd.Scripted),
	}
	var wgRecv sync.WaitGroup
	for _, p := range r.peers {
		ep, err := net.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewScripted()
		node, err := consensus.New(consensus.Config{
			Self:     p,
			Peers:    r.peers,
			Detector: det,
			Send: func(to id.NodeID, pl msg.Payload) error {
				return ep.Send(msg.Envelope{To: to, Payload: pl})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		regs, err := NewBatched(node, Options{
			Depth:    depthFn,
			Self:     p,
			Peers:    r.peers,
			Detector: det,
			Send: func(to id.NodeID, pl msg.Payload) error {
				return ep.Send(msg.Envelope{To: to, Payload: pl})
			},
			RetryInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[p] = node
		r.regs[p] = regs
		r.dets[p] = det
		wgRecv.Add(1)
		go func() {
			defer wgRecv.Done()
			for env := range ep.Recv() {
				if ops, ok := env.Payload.(msg.RegOps); ok {
					regs.EnqueueRemote(env.From, ops.Ops)
					continue
				}
				node.Handle(env.From, env.Payload)
			}
		}()
	}
	t.Cleanup(func() {
		for _, p := range r.peers {
			r.regs[p].Stop()
			r.nodes[p].Stop()
		}
		net.Close() // closes the endpoints, ending the recv loops
		wgRecv.Wait()
	})
	return r
}

// TestBatchedMixedCohortResolvesEveryCaller is the satellite requirement: a
// cohort mixing regA and regD ops for different rids must resolve every
// caller with its own register's outcome.
func TestBatchedMixedCohortResolvesEveryCaller(t *testing.T) {
	r := newBatchedRig(t)
	primary := r.regs[r.peers[0]]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const tries = 4
	commit := msg.Decision{Result: []byte("res"), Outcome: msg.OutcomeCommit}
	var wg sync.WaitGroup
	winners := make([]id.NodeID, tries)
	decs := make([]msg.Decision, tries)
	errs := make(chan error, 2*tries)
	for i := 0; i < tries; i++ {
		i := i
		rid := testRID(uint64(i + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := primary.WriteA(ctx, rid, id.AppServer(1))
			if err != nil {
				errs <- err
				return
			}
			winners[i] = w
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := primary.WriteD(ctx, rid, commit)
			if err != nil {
				errs <- err
				return
			}
			decs[i] = d
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < tries; i++ {
		if winners[i] != id.AppServer(1) {
			t.Errorf("try %d: regA winner = %v", i+1, winners[i])
		}
		if !decs[i].Committed() || string(decs[i].Result) != "res" {
			t.Errorf("try %d: regD = %v", i+1, decs[i])
		}
	}
	// The cohort really shared instances: far fewer proposals than writes.
	st := r.nodes[r.peers[0]].Stats()
	if st.Proposes >= 2*tries {
		t.Errorf("%d proposals for %d writes: cohorts never formed", st.Proposes, 2*tries)
	}
	if st.BatchOps == 0 {
		t.Error("no ops decided through batch slots")
	}
	// Every replica converges on every register (weak reads catch up).
	for _, p := range r.peers {
		for i := 0; i < tries; i++ {
			rid := testRID(uint64(i + 1))
			deadline := time.Now().Add(5 * time.Second)
			for {
				w, okA := r.regs[p].ReadA(rid)
				d, okD := r.regs[p].ReadD(rid)
				if okA && okD {
					if w != id.AppServer(1) || !d.Committed() {
						t.Fatalf("%v try %d: regA=%v regD=%v", p, i+1, w, d)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%v never observed try %d", p, i+1)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestBatchedWriteOnceAcrossReplicas: all three replicas concurrently write
// the same register through the batched path (non-primaries forward their
// cohorts); exactly one value must win everywhere — the write-once
// arbitration the whole protocol rests on.
func TestBatchedWriteOnceAcrossReplicas(t *testing.T) {
	r := newBatchedRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rid := testRID(1)
	winners := make([]id.NodeID, len(r.peers))
	var wg sync.WaitGroup
	for i, p := range r.peers {
		i, p := i, p
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := r.regs[p].WriteA(ctx, rid, p)
			if err != nil {
				t.Errorf("%v: %v", p, err)
				return
			}
			winners[i] = w
		}()
	}
	wg.Wait()
	for i := 1; i < len(winners); i++ {
		if winners[i] != winners[0] {
			t.Fatalf("write-once violated across replicas: %v", winners)
		}
	}
	found := false
	for _, p := range r.peers {
		if winners[0] == p {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %v is not one of the writers", winners[0])
	}
}

// TestBatchedSequencerFailover: with the primary's sequencer gone, a
// backup's forwarded writes must re-route (detector-driven) and still
// decide.
func TestBatchedSequencerFailover(t *testing.T) {
	r := newBatchedRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The primary vanishes before the write: the backup first forwards into
	// the void, then the suspicion flips and it sequences the cohort itself.
	r.regs[r.peers[0]].Stop()
	r.nodes[r.peers[0]].Stop()
	go func() {
		time.Sleep(20 * time.Millisecond)
		for _, p := range r.peers[1:] {
			r.dets[p].Set(r.peers[0], true)
		}
	}()
	w, err := r.regs[r.peers[1]].WriteA(ctx, testRID(1), id.AppServer(2))
	if err != nil {
		t.Fatal(err)
	}
	if w != id.AppServer(2) {
		t.Fatalf("winner = %v", w)
	}
}

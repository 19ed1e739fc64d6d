package consensus

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// expectWatch waits for a Watch channel to deliver want.
func expectWatch(t *testing.T, who id.NodeID, ch <-chan []byte, want []byte) {
	t.Helper()
	select {
	case v := <-ch:
		if !bytes.Equal(v, want) {
			t.Fatalf("%v: watch delivered %q, want %q", who, v, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%v: watch never resolved", who)
	}
}

// parkHook returns what a hook needs to park a sender: parked, for the
// hook to close on arrival, and released, which release closes. The test's
// cleanup releases too (call parkHook after building the rig), so a failing
// test cannot leave a node's goroutine parked and its Stop waiting for ever.
func parkHook(t *testing.T) (parked chan struct{}, released <-chan struct{}, release func()) {
	parked = make(chan struct{})
	ch := make(chan struct{})
	release = sync.OnceFunc(func() { close(ch) })
	t.Cleanup(release)
	return parked, ch, release
}

// isDecisionFor reports whether p is the CDecision of key.
func isDecisionFor(p msg.Payload, key msg.RegKey) bool {
	d, ok := p.(msg.CDecision)
	return ok && d.Reg == key
}

// TestFailureFreeInstanceMessageCount: one failure-free instance led by the
// round-1 coordinator costs exactly 3(n-1) remote messages — its proposal,
// the acks, and the coordinator's decision to each peer. Learners do not
// relay the decision, and a late ack to a decided coordinator is not
// answered (the decision is already on its way to the acker). The hook holds
// the coordinator's decision until every participant has acked, so all n-1
// acks are on the wire and late ones are guaranteed.
func TestFailureFreeInstanceMessageCount(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// A poll far beyond the test: no safety-net retransmission may
			// add to the count.
			r := newRigPoll(t, n, time.Minute)
			coord := r.peers[0]
			var acks atomic.Int64
			r.setHook(func(from, to id.NodeID, p msg.Payload) bool {
				switch p.(type) {
				case msg.CAck:
					acks.Add(1)
				case msg.CDecision:
					for deadline := time.Now().Add(5 * time.Second); acks.Load() < int64(n-1); time.Sleep(100 * time.Microsecond) {
						if time.Now().After(deadline) {
							t.Errorf("only %d/%d acks sent", acks.Load(), n-1)
							break
						}
					}
				}
				return false
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			k := msg.SlotKey(1)
			if _, err := r.nodes[coord].Propose(ctx, k, msg.EncodeRegOps([]msg.RegOp{{Reg: regKey(msg.RegA, 1), Val: []byte("v")}})); err != nil {
				t.Fatal(err)
			}
			for _, p := range r.peers {
				waitDecided(t, r.nodes[p], k)
			}
			// Let the late acks land and anything they provoke drain.
			r.net.Quiesce()
			time.Sleep(20 * time.Millisecond)
			r.net.Quiesce()

			var total uint64
			for _, p := range r.peers {
				total += r.nodes[p].Stats().Messages
			}
			if want := uint64(3 * (n - 1)); total != want {
				t.Fatalf("%d remote messages for one instance at n=%d, want exactly 3(n-1) = %d", total, n, want)
			}
		})
	}
}

// watchCase is one way a watched register gets decided: as the only op of
// its slot (the paper's one instance per write), or inside a cohort.
type watchCase struct {
	name string
	inst msg.RegKey // the slot the coordinator runs
	reg  msg.RegKey // the register the laggard watches
	val  func(v string) []byte
}

func watchCases() []watchCase {
	reg, other := regKey(msg.RegD, 7), regKey(msg.RegA, 8)
	return []watchCase{
		{name: "register", inst: msg.SlotKey(1), reg: reg, val: func(v string) []byte {
			return msg.EncodeRegOps([]msg.RegOp{{Reg: reg, Val: []byte(v)}})
		}},
		{name: "slot", inst: msg.SlotKey(1), reg: reg, val: func(v string) []byte {
			return msg.EncodeRegOps([]msg.RegOp{{Reg: other, Val: []byte(v)}, {Reg: reg, Val: []byte(v)}})
		}},
	}
}

// TestDroppedDecisionPulledByReack: the coordinator's decision to one
// participant is lost. Nobody else relays it, so the participant must pull:
// its re-ack on the tick reaches the decided coordinator, which answers
// with the decision. The participant only watches the register (it never
// proposes), and its watch resolves with the coordinator's value.
func TestDroppedDecisionPulledByReack(t *testing.T) {
	for _, c := range watchCases() {
		t.Run(c.name, func(t *testing.T) {
			r := newRigPoll(t, 3, 5*time.Millisecond)
			coord, laggard := r.peers[0], r.peers[2]
			var dropped atomic.Bool
			r.setHook(func(from, to id.NodeID, p msg.Payload) bool {
				return from == coord && to == laggard && isDecisionFor(p, c.inst) && dropped.CompareAndSwap(false, true)
			})
			ch := r.nodes[laggard].Watch(c.reg)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := r.nodes[coord].Propose(ctx, c.inst, c.val("v")); err != nil {
				t.Fatal(err)
			}
			expectWatch(t, laggard, ch, []byte("v"))
			if !dropped.Load() {
				t.Fatal("the decision was never dropped: test premise broken")
			}
			if st := r.nodes[laggard].Stats(); st.Resends == 0 {
				t.Errorf("laggard learned without a re-ack (%s): the pull path was not exercised", st)
			}
		})
	}
}

// TestCoordinatorCrashBeforeDecisionLeaves: the round-1 coordinator decides
// and crashes before any CDecision leaves it. The participant that acked is
// locked on the value, so round 2 — coordinated by a survivor that never saw
// the round-1 proposal and proposes a value of its own — must re-decide the
// crashed coordinator's value, and the watching participant resolves with
// it.
func TestCoordinatorCrashBeforeDecisionLeaves(t *testing.T) {
	for _, c := range watchCases() {
		t.Run(c.name, func(t *testing.T) {
			r := newRigPoll(t, 3, 5*time.Millisecond)
			coord, next, watcher := r.peers[0], r.peers[1], r.peers[2]
			var crashed atomic.Bool
			r.setHook(func(from, to id.NodeID, p msg.Payload) bool {
				if from != coord {
					return false
				}
				if _, ok := p.(msg.CDecision); ok {
					crashed.Store(true)
				}
				// The round-2 coordinator never hears the round-1 proposal,
				// and nothing leaves the coordinator once it has decided.
				_, isProp := p.(msg.Propose)
				return crashed.Load() || (isProp && to == next)
			})
			ch := r.nodes[watcher].Watch(c.reg)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := r.nodes[coord].Propose(ctx, c.inst, c.val("v")); err != nil {
				t.Fatal(err)
			}
			if !crashed.Load() {
				t.Fatal("the coordinator decided without sending a decision: test premise broken")
			}
			r.crash(coord)
			got, err := r.nodes[next].Propose(ctx, c.inst, c.val("other"))
			if err != nil {
				t.Fatal(err)
			}
			if want := c.val("v"); !bytes.Equal(got, want) {
				t.Fatalf("round 2 decided %q, want the crashed coordinator's %q", got, want)
			}
			expectWatch(t, watcher, ch, []byte("v"))
			if st := r.nodes[next].Stats(); st.Rounds < 2 {
				t.Errorf("the survivor decided in %d round(s), want a round-2 re-decision", st.Rounds)
			}
		})
	}
}

// TestWatchWithoutInstancePullsThroughGapProbe: a node that only watches a
// register and never even heard of the slot carrying it (proposal and
// decision both lost) has no instance to retransmit from. The next slot's
// traffic carries the coordinator's applied watermark, and the gap probe it
// triggers pulls the missing slot.
func TestWatchWithoutInstancePullsThroughGapProbe(t *testing.T) {
	r := newRigPoll(t, 3, 5*time.Millisecond)
	coord, laggard := r.peers[0], r.peers[2]
	first := msg.SlotKey(1)
	var decisionDropped atomic.Bool
	r.setHook(func(from, to id.NodeID, p msg.Payload) bool {
		if from != coord || to != laggard {
			return false
		}
		if prop, ok := p.(msg.Propose); ok && prop.Reg == first {
			return true
		}
		return isDecisionFor(p, first) && decisionDropped.CompareAndSwap(false, true)
	})
	reg := regKey(msg.RegD, 1)
	ch := r.nodes[laggard].Watch(reg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.nodes[coord].Propose(ctx, first, msg.EncodeRegOps([]msg.RegOp{{Reg: reg, Val: []byte("v")}})); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.nodes[laggard].InstanceState(first.Slot); ok {
		t.Fatal("the laggard has an instance for the slot: test premise broken")
	}
	if _, err := r.nodes[coord].Propose(ctx, msg.SlotKey(2), msg.EncodeRegOps([]msg.RegOp{{Reg: regKey(msg.RegD, 2), Val: []byte("w")}})); err != nil {
		t.Fatal(err)
	}
	expectWatch(t, laggard, ch, []byte("v"))
	waitApplied(t, r.nodes[laggard], 2)
}

// TestDecisionSentBeforeProposeReturns: the deciding coordinator's Propose
// returns only once the decision is on its way to every peer. The cohort
// sequencer proposes slot s+1 when Propose(s) returns, so it can never put
// s+1 on a link ahead of s's decision, and a follower never holds decided
// slots above a gap of the sequencer's making (the bound cluster's
// TestBoundedSlotMemorySoak asserts).
func TestDecisionSentBeforeProposeReturns(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	coord := r.peers[0]
	slot, reg := msg.SlotKey(1), regKey(msg.RegA, 1)
	parked, released, release := parkHook(t)
	var once atomic.Bool
	r.setHook(func(from, to id.NodeID, p msg.Payload) bool {
		if from == coord && isDecisionFor(p, slot) && once.CompareAndSwap(false, true) {
			close(parked)
			<-released
		}
		return false
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.nodes[coord].Propose(context.Background(), slot, msg.EncodeRegOps([]msg.RegOp{{Reg: reg, Val: []byte("v")}}))
		done <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator never sent its decision")
	}
	select {
	case err := <-done:
		t.Fatalf("Propose returned (%v) while the decision was still unsent", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, p := range r.peers {
		waitApplied(t, r.nodes[p], 1)
	}
}

package consensus

import (
	"bytes"
	"context"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

func regKey(array msg.RegArray, try uint64) msg.RegKey {
	return msg.RegKey{Array: array, RID: id.ResultID{Client: id.Client(1), Seq: 1, Try: try}}
}

// waitDecided polls until key is decided at node (decisions propagate
// asynchronously, in the coordinator's broadcast).
func waitDecided(t *testing.T, n *Node, key msg.RegKey) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := n.Decided(key); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v never decided at %v", key, n.cfg.Self)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlotBatchDecidesEveryRegister: one batch-consensus slot carrying a
// mixed cohort (a regA claim and a regD decision for different tries) must
// decide both registers on every node, each with its own value.
func TestSlotBatchDecidesEveryRegister(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	kA, kD := regKey(msg.RegA, 1), regKey(msg.RegD, 2)
	ops := []msg.RegOp{
		{Reg: kA, Val: []byte("appserver-1")},
		{Reg: kD, Val: []byte("commit!")},
	}
	dec, err := r.nodes[r.peers[0]].Propose(ctx, msg.SlotKey(1), msg.EncodeRegOps(ops))
	if err != nil {
		t.Fatal(err)
	}
	back, err := msg.DecodeRegOps(dec)
	if err != nil || len(back) != 2 {
		t.Fatalf("decided slot value corrupt: %v / %v", back, err)
	}
	for _, p := range r.peers {
		if v := waitDecided(t, r.nodes[p], kA); !bytes.Equal(v, []byte("appserver-1")) {
			t.Fatalf("%v: regA = %q", p, v)
		}
		if v := waitDecided(t, r.nodes[p], kD); !bytes.Equal(v, []byte("commit!")) {
			t.Fatalf("%v: regD = %q", p, v)
		}
	}
	// Batch slots are internal: the register scan must not surface them.
	for _, k := range r.nodes[r.peers[0]].Keys() {
		if k.Array == msg.RegBatch {
			t.Fatalf("Keys() leaked batch slot %v", k)
		}
	}
}

// TestSlotOrderResolvesWriteRaces: two slots both writing the same register
// must resolve first-write-wins in SLOT order on every node, even when the
// later slot decides first (out-of-order arrival): application holds until
// the gap fills.
func TestSlotOrderResolvesWriteRaces(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	k := regKey(msg.RegD, 1)
	// Slot 2 decides first, carrying the LOSING write...
	if _, err := r.nodes[r.peers[0]].Propose(ctx, msg.SlotKey(2),
		msg.EncodeRegOps([]msg.RegOp{{Reg: k, Val: []byte("late")}})); err != nil {
		t.Fatal(err)
	}
	// ...and must not apply: slot 1 is still undecided.
	if _, ok := r.nodes[r.peers[0]].Decided(k); ok {
		t.Fatal("slot 2 applied ahead of slot 1: slot order violated")
	}
	if got := r.nodes[r.peers[0]].LowestUndecidedSlot(); got != 1 {
		t.Fatalf("LowestUndecidedSlot = %d, want the gap at 1", got)
	}
	// Slot 1 carries the winner.
	if _, err := r.nodes[r.peers[0]].Propose(ctx, msg.SlotKey(1),
		msg.EncodeRegOps([]msg.RegOp{{Reg: k, Val: []byte("first")}})); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.peers {
		if v := waitDecided(t, r.nodes[p], k); !bytes.Equal(v, []byte("first")) {
			t.Fatalf("%v: register = %q, want the slot-1 write", p, v)
		}
	}
}

// TestFastPathCountsAndStats: a failure-free write led by the round-1
// coordinator is one instance, one proposal, one round — and a fast-path
// hit.
func TestFastPathCountsAndStats(t *testing.T) {
	r := newRig(t, 3, transport.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n0 := r.nodes[r.peers[0]]
	if _, err := n0.Propose(ctx, msg.SlotKey(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := n0.Stats()
	if st.Proposes != 1 || st.FastPath != 1 || st.Instances != 1 || st.Rounds != 1 {
		t.Fatalf("coordinator stats = %+v, want one instance/proposal/round/fast-path", st)
	}
	if st.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

// TestEventDrivenSuspicionWakeup: with the safety-net poll effectively
// disabled (one hour), a phase blocked on a dead coordinator must still
// terminate promptly once the detector announces the suspicion — proof that
// blocked phases wake on detector events, not polling.
func TestEventDrivenSuspicionWakeup(t *testing.T) {
	r := newRigPoll(t, 3, time.Hour)
	dead := r.peers[0] // round-1 coordinator
	r.net.Crash(dead)
	r.nodes[dead].Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan []byte, 1)
	go func() {
		v, err := r.nodes[r.peers[1]].Propose(ctx, msg.SlotKey(1), []byte("survivor"))
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	// Let the proposal block inside round 1 (coordinator dead, not yet
	// suspected), then flip the detectors: the transition signal is the only
	// thing that can wake the blocked phase before the one-hour poll.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("decided before any suspicion: test premise broken")
	default:
	}
	for _, p := range r.peers[1:] {
		r.dets[p].Set(dead, true)
	}
	select {
	case v := <-done:
		if string(v) != "survivor" {
			t.Fatalf("decided %q", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked phase never woke on the suspicion transition")
	}
}

// TestSurvivesDroppedMessages: consensus assumes reliable channels, but the
// links underneath are fair-loss — a transient partition silently drops
// messages. A round whose estimate or proposal fell into a partition must
// still terminate once the partition heals, recovered by the safety-net
// retransmission of blocked phases (there is no suspicion here: everyone is
// alive the whole time).
func TestSurvivesDroppedMessages(t *testing.T) {
	r := newRigPoll(t, 3, 5*time.Millisecond)
	// Isolate the round-1 coordinator while the other two try to start the
	// instance: their estimates and acks to it (and its proposal to them)
	// are silently dropped, exactly like the soak test's partitions.
	r.net.Partition([]id.NodeID{r.peers[0]}, []id.NodeID{r.peers[1], r.peers[2]})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan []byte, 2)
	for _, p := range []id.NodeID{r.peers[0], r.peers[1]} {
		p := p
		go func() {
			v, err := r.nodes[p].Propose(ctx, msg.SlotKey(1), []byte(p.String()))
			if err != nil {
				t.Errorf("%v: %v", p, err)
			}
			done <- v
		}()
	}
	// Let the round-1 messages fall into the partition, then heal. Nothing
	// but the blocked phases' retransmission can revive the instance: no
	// process crashed, so the detector never fires.
	time.Sleep(30 * time.Millisecond)
	r.net.Heal()

	var vals [][]byte
	for i := 0; i < 2; i++ {
		select {
		case v := <-done:
			vals = append(vals, v)
		case <-time.After(8 * time.Second):
			t.Fatal("instance never recovered from the dropped round-1 messages")
		}
	}
	if !bytes.Equal(vals[0], vals[1]) {
		t.Fatalf("agreement violated after partition: %q vs %q", vals[0], vals[1])
	}
	if st := r.nodes[r.peers[0]].Stats(); st.Resends == 0 {
		if st2 := r.nodes[r.peers[1]].Stats(); st2.Resends == 0 {
			t.Error("no retransmissions recorded; the recovery path was not exercised")
		}
	}
}

// TestMergeBatches covers the round-1 fast-path merge rules directly.
func TestMergeBatches(t *testing.T) {
	k1, k2, k3 := regKey(msg.RegA, 1), regKey(msg.RegA, 2), regKey(msg.RegA, 3)
	base := msg.EncodeRegOps([]msg.RegOp{{Reg: k1, Val: []byte("a")}})
	ests := map[id.NodeID]estVal{
		id.AppServer(2): {val: msg.EncodeRegOps([]msg.RegOp{
			{Reg: k1, Val: []byte("loser")}, // duplicate register: base wins
			{Reg: k2, Val: []byte("b")},
		})},
		id.AppServer(3): {val: msg.EncodeRegOps([]msg.RegOp{{Reg: k3, Val: []byte("c")}}), ts: 2}, // locked: excluded
	}
	merged, err := msg.DecodeRegOps(mergeBatches(base, ests))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[msg.RegKey]string, len(merged))
	for _, op := range merged {
		got[op.Reg] = string(op.Val)
	}
	if len(got) != 2 || got[k1] != "a" || got[k2] != "b" {
		t.Fatalf("merged = %v, want base's k1 plus ts-0 k2 only", got)
	}
	// A corrupt base passes through untouched.
	if out := mergeBatches([]byte{0xff}, ests); !bytes.Equal(out, []byte{0xff}) {
		t.Fatal("corrupt base was rewritten")
	}
}

// newRigPoll is newRig with an explicit tick (Config.Poll).
func newRigPoll(t *testing.T, n int, poll time.Duration) *rig {
	t.Helper()
	return newRigWith(t, n, transport.Options{}, poll)
}

package tcptransport

import (
	"bytes"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/lint/leakcheck"
	"etx/internal/msg"
	"etx/internal/rchan"
)

// pairUp creates two connected endpoints on loopback. Every test that goes
// through it also asserts that Close reaps the accept/read/write goroutines
// (the leak class the golifecycle analyzer guards statically).
func pairUp(t *testing.T, a, b id.NodeID) (*Endpoint, *Endpoint) {
	t.Helper()
	leakcheck.Check(t)
	epA, err := Listen(Config{Self: a, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	epB, err := Listen(Config{Self: b, Listen: "127.0.0.1:0", Peers: map[id.NodeID]string{a: epA.Addr()}})
	if err != nil {
		epA.Close()
		t.Fatal(err)
	}
	epA.SetPeers(map[id.NodeID]string{b: epB.Addr()})
	t.Cleanup(func() {
		epA.Close()
		epB.Close()
	})
	return epA, epB
}

func recvOne(t *testing.T, ep *Endpoint, within time.Duration) msg.Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return env
	case <-time.After(within):
		t.Fatal("timed out waiting for delivery")
	}
	panic("unreachable")
}

func TestRoundTripOverTCP(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.DBServer(1))
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Prepare{RID: rid}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 5*time.Second)
	if env.From != a.ID() {
		t.Errorf("From = %v", env.From)
	}
	if p, ok := env.Payload.(msg.Prepare); !ok || p.RID != rid {
		t.Errorf("payload = %#v", env.Payload)
	}
	// And the reverse direction (separate connection).
	if err := b.Send(msg.Envelope{To: a.ID(), Payload: msg.VoteMsg{RID: rid, V: msg.VoteYes, Inc: 1}}); err != nil {
		t.Fatal(err)
	}
	env = recvOne(t, a, 5*time.Second)
	if v, ok := env.Payload.(msg.VoteMsg); !ok || v.V != msg.VoteYes {
		t.Errorf("payload = %#v", env.Payload)
	}
}

func TestLargePayload(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.AppServer(2))
	body := bytes.Repeat([]byte("x"), 1<<20)
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Request{RID: rid, Body: body}}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, 10*time.Second)
	req := env.Payload.(msg.Request)
	if !bytes.Equal(req.Body, body) {
		t.Fatal("1 MiB payload mangled")
	}
}

func TestSendToUnreachablePeerIsFairLoss(t *testing.T) {
	ep, err := Listen(Config{
		Self: id.AppServer(1), Listen: "127.0.0.1:0",
		Peers:       map[id.NodeID]string{id.AppServer(2): "127.0.0.1:1"}, // nothing listens there
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	// Fair loss: no error, message silently dropped.
	if err := ep.Send(msg.Envelope{To: id.AppServer(2), Payload: msg.Heartbeat{Seq: 1}}); err != nil {
		t.Fatalf("fair-loss send returned %v", err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	a, b := pairUp(t, id.AppServer(1), id.AppServer(2))
	bAddr := b.Addr()
	if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Heartbeat{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, 5*time.Second)

	// Restart b on the same address.
	b.Close()
	b2, err := Listen(Config{Self: id.AppServer(2), Listen: bAddr, Peers: map[id.NodeID]string{a.ID(): a.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The first send may be lost on the dead connection; retry until the
	// fresh connection delivers (exactly what rchan automates).
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.Send(msg.Envelope{To: b2.ID(), Payload: msg.Heartbeat{Seq: 2}})
		select {
		case env := <-b2.Recv():
			if hb, ok := env.Payload.(msg.Heartbeat); ok && hb.Seq == 2 {
				return
			}
		case <-time.After(100 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("never reconnected")
		}
	}
}

func TestReliableChannelsOverTCP(t *testing.T) {
	rawA, rawB := pairUp(t, id.AppServer(1), id.AppServer(2))
	a := rchan.Wrap(rawA, 50*time.Millisecond)
	b := rchan.Wrap(rawB, 50*time.Millisecond)
	defer a.Close()
	defer b.Close()

	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	for i := 0; i < 20; i++ {
		if err := a.Send(msg.Envelope{To: rawB.ID(), Payload: msg.Decide{RID: rid, O: msg.OutcomeCommit}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		select {
		case env, ok := <-b.Recv():
			if !ok {
				t.Fatal("closed early")
			}
			if env.Payload.Kind() != msg.KindDecide {
				t.Fatalf("unexpected payload %v", env.Payload.Kind())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	// One-way traffic is acknowledged cumulatively, a quarter period after
	// it arrives — not frame for frame — and never retransmitted meanwhile.
	for deadline := time.Now().Add(5 * time.Second); a.Unacked() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("unacked stuck at %d", a.Unacked())
		}
	}
	if got := rawA.Stats().FramesSent; got != 20 {
		t.Errorf("%d frames for 20 messages", got)
	}
	if got := rawB.Stats().FramesSent; got == 0 || got > 3 {
		t.Errorf("%d acknowledgement frames for one burst of 20 messages, want 1 (3 at most)", got)
	}
}

func TestParsePeers(t *testing.T) {
	book, err := ParsePeers(id.RoleAppServer, "1=127.0.0.1:7101,2=127.0.0.1:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(book) != 2 || book[id.AppServer(1)] != "127.0.0.1:7101" {
		t.Fatalf("book = %v", book)
	}
	if _, err := ParsePeers(id.RoleAppServer, "nonsense"); err == nil {
		t.Fatal("malformed spec accepted")
	}
	empty, err := ParsePeers(id.RoleAppServer, "")
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty spec: %v %v", empty, err)
	}
}

func TestMerge(t *testing.T) {
	m := Merge(
		map[id.NodeID]string{id.AppServer(1): "a"},
		map[id.NodeID]string{id.DBServer(1): "b"},
		nil,
	)
	if len(m) != 2 {
		t.Fatalf("merge = %v", m)
	}
}

package rchan

import (
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

func pairOver(t *testing.T, opts transport.Options) (*Endpoint, *Endpoint, *transport.MemNetwork) {
	t.Helper()
	return pairEvery(t, opts, 10*time.Millisecond)
}

// pairEvery is pairOver with the retransmit period chosen by the test.
func pairEvery(t *testing.T, opts transport.Options, period time.Duration) (*Endpoint, *Endpoint, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(opts)
	t.Cleanup(net.Close)
	_, a := attachWrapped(t, net, id.AppServer(1), period)
	_, b := attachWrapped(t, net, id.AppServer(2), period)
	return a, b, net
}

// attachWrapped attaches node (again, after a crash) and wraps it; the raw
// endpoint is returned too, for tests that forge frames under the wrapper.
func attachWrapped(t *testing.T, net *transport.MemNetwork, node id.NodeID, period time.Duration) (transport.Endpoint, *Endpoint) {
	t.Helper()
	raw, err := net.Attach(node)
	if err != nil {
		t.Fatal(err)
	}
	ep := Wrap(raw, period)
	t.Cleanup(func() { ep.Close() })
	return raw, ep
}

// waitUnackedZero fails the test unless every endpoint's unacknowledged
// buffer drains within the deadline.
func waitUnackedZero(t *testing.T, within time.Duration, eps ...*Endpoint) {
	t.Helper()
	deadline := time.Now().Add(within)
	for _, ep := range eps {
		for ep.Unacked() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: unacked stuck at %d", ep.ID(), ep.Unacked())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func payload(seq uint64) msg.Payload {
	return msg.Decide{RID: id.ResultID{Client: id.Client(1), Seq: seq, Try: 1}, O: msg.OutcomeCommit}
}

func collect(t *testing.T, ep *Endpoint, n int, within time.Duration) []msg.Envelope {
	t.Helper()
	var out []msg.Envelope
	deadline := time.After(within)
	for len(out) < n {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("closed after %d/%d deliveries", len(out), n)
			}
			out = append(out, env)
		case <-deadline:
			t.Fatalf("timed out after %d/%d deliveries", len(out), n)
		}
	}
	return out
}

func TestDeliversOverPerfectNetwork(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	for i := 0; i < 10; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 10, 5*time.Second)
	if len(got) != 10 {
		t.Fatalf("got %d", len(got))
	}
}

func TestRetransmissionBeatsLoss(t *testing.T) {
	// 40% loss: without retransmission most of 50 messages would vanish.
	a, b, _ := pairOver(t, transport.Options{LossProb: 0.4, Seed: 11})
	for i := 0; i < 50; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, 50, 30*time.Second)
	seen := make(map[uint64]bool)
	for _, env := range got {
		seen[env.Payload.(msg.Decide).RID.Seq] = true
	}
	if len(seen) != 50 {
		t.Fatalf("only %d distinct messages delivered", len(seen))
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// 100% duplication at the network plus retransmission pressure: each
	// logical message must still be delivered exactly once.
	a, b, _ := pairOver(t, transport.Options{DupProb: 1.0, Seed: 3})
	const n = 25
	for i := 0; i < n; i++ {
		if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, n, 15*time.Second)
	counts := make(map[uint64]int)
	for _, env := range got {
		counts[env.Payload.(msg.Decide).RID.Seq]++
	}
	// No further deliveries may trickle in.
	select {
	case env := <-b.Recv():
		counts[env.Payload.(msg.Decide).RID.Seq]++
	case <-time.After(100 * time.Millisecond):
	}
	for seq, c := range counts {
		if c != 1 {
			t.Errorf("message %d delivered %d times (integrity violated)", seq, c)
		}
	}
}

func TestHeartbeatsBypassReliability(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	if err := a.Send(msg.Envelope{To: id.AppServer(2), Payload: msg.Heartbeat{Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 1, 5*time.Second)
	if hb, ok := got[0].Payload.(msg.Heartbeat); !ok || hb.Seq != 9 {
		t.Fatalf("payload = %#v", got[0].Payload)
	}
	if a.Unacked() != 0 {
		t.Errorf("heartbeats must not be buffered for retransmission (unacked=%d)", a.Unacked())
	}
}

func TestUnackedDrainsOnAck(t *testing.T) {
	a, b, _ := pairOver(t, transport.Options{})
	for i := 0; i < 5; i++ {
		a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(uint64(i))})
	}
	collect(t, b, 5, 5*time.Second)
	waitUnackedZero(t, 5*time.Second, a)
}

func TestRetransmitStopsWhenInnerDies(t *testing.T) {
	a, _, net := pairOver(t, transport.Options{LossProb: 1.0, Seed: 1})
	// Everything is lost: unacked grows, retransmit loop spins.
	a.Send(msg.Envelope{To: id.AppServer(2), Payload: payload(1)})
	if a.Unacked() != 1 {
		t.Fatalf("unacked = %d", a.Unacked())
	}
	// Crash the node under the wrapper: the retransmit loop must wind down
	// without Close being called (the cluster crashes nodes this way).
	net.Crash(id.AppServer(1))
	time.Sleep(50 * time.Millisecond) // would spin forever if not stopped
}

func TestSendNilPayloadRejected(t *testing.T) {
	a, _, _ := pairOver(t, transport.Options{})
	if err := a.Send(msg.Envelope{To: id.AppServer(2)}); err == nil {
		t.Fatal("nil payload accepted")
	}
}

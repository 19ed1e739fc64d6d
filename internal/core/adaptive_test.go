package core

import (
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
	"etx/internal/woregister"
)

// captureEP is a transport.Endpoint that records what Send emits.
type captureEP struct {
	self id.NodeID
	ch   chan msg.Envelope
}

func newCaptureEP(self id.NodeID) *captureEP {
	return &captureEP{self: self, ch: make(chan msg.Envelope, 256)}
}

func (c *captureEP) ID() id.NodeID { return c.self }
func (c *captureEP) Send(env msg.Envelope) error {
	c.ch <- env
	return nil
}
func (c *captureEP) Recv() <-chan msg.Envelope { return c.ch }
func (c *captureEP) Close() error              { return nil }

var _ transport.Endpoint = (*captureEP)(nil)

// TestAdaptiveCap pins the window-sizing curve the outbound aggregator and
// the cohort sequencer share: collapse to 1 at depth <= 1, then at least 8
// and roughly 2x the depth, never past the configured cap.
func TestAdaptiveCap(t *testing.T) {
	cases := []struct {
		configured, depth, want int
	}{
		{64, 0, 1},
		{64, 1, 1},
		{64, 2, 8},  // floor: small pipelines still batch usefully
		{64, 4, 8},  // 2*4 = 8, at the floor
		{64, 8, 16}, // 2x headroom over the observed depth
		{64, 32, 64},
		{64, 64, 64}, // clamped to the configured cap
		{4, 64, 4},   // the configured cap always wins
	}
	for _, c := range cases {
		if got := woregister.AdaptiveCap(c.configured, c.depth); got != c.want {
			t.Errorf("AdaptiveCap(%d, %d) = %d, want %d", c.configured, c.depth, got, c.want)
		}
	}
}

// TestOutAggCollapsesAtDepthOne: with a depth sampler reporting a lone
// request, an hour-long window must add zero latency — the message flushes
// immediately, unbatched, exactly as if aggregation were off.
func TestOutAggCollapsesAtDepthOne(t *testing.T) {
	ep := newCaptureEP(id.AppServer(1))
	agg := newOutAgg(ep, time.Hour, 64, func() int { return 1 })
	defer agg.stop()

	db := id.DBServer(1)
	rid := id.ResultID{Client: id.Client(1), Seq: 1, Try: 1}
	agg.send(db, msg.Prepare{RID: rid})

	select {
	case env := <-ep.ch:
		if env.To != db {
			t.Errorf("To = %v", env.To)
		}
		if p, ok := env.Payload.(msg.Prepare); !ok || p.RID != rid {
			t.Errorf("payload = %#v, want the unbatched Prepare", env.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("depth-1 send buffered behind the window instead of flushing")
	}
}

// TestOutAggWidensAtDepth64: a deep pipeline must fill the full configured
// cap and leave as one msg.Batch — no premature flushes fragmenting it.
func TestOutAggWidensAtDepth64(t *testing.T) {
	const capMsgs = 64
	ep := newCaptureEP(id.AppServer(1))
	agg := newOutAgg(ep, time.Hour, capMsgs, func() int { return 64 })
	defer agg.stop()

	db := id.DBServer(1)
	for i := 0; i < capMsgs-1; i++ {
		rid := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
		agg.send(db, msg.Prepare{RID: rid})
	}
	select {
	case env := <-ep.ch:
		t.Fatalf("flushed %#v before the cap was reached", env.Payload)
	case <-time.After(50 * time.Millisecond):
	}

	rid := id.ResultID{Client: id.Client(1), Seq: capMsgs - 1, Try: 1}
	agg.send(db, msg.Prepare{RID: rid})
	select {
	case env := <-ep.ch:
		b, ok := env.Payload.(msg.Batch)
		if !ok {
			t.Fatalf("payload = %#v, want one msg.Batch", env.Payload)
		}
		if len(b.Msgs) != capMsgs {
			t.Errorf("batch carries %d msgs, want %d", len(b.Msgs), capMsgs)
		}
		for i, p := range b.Msgs {
			if pr, ok := p.(msg.Prepare); !ok || pr.RID.Seq != uint64(i) {
				t.Errorf("batch msg %d = %#v: order not preserved", i, p)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cap-filling send never flushed")
	}
}

// TestOutAggAdaptiveNeverReorders: alternating sampled depths (a burst
// draining to a lone request and back) must never reorder messages to the
// same destination — the collapse is append-then-flush, not a bypass. The
// hour-long window keeps every flush on the sending goroutine, so arrival
// order is deterministic and any bypass would surface as a jumped sequence.
func TestOutAggAdaptiveNeverReorders(t *testing.T) {
	depth := 8
	ep := newCaptureEP(id.AppServer(1))
	agg := newOutAgg(ep, time.Hour, 64, func() int { return depth })
	defer agg.stop()

	db := id.DBServer(1)
	const total = 199 // last index is a depth-1 flush point: nothing left buffered
	go func() {
		for i := 0; i < total; i++ {
			if i%3 == 0 {
				depth = 1 // flush point: everything buffered leaves now
			} else {
				depth = 8
			}
			rid := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
			agg.send(db, msg.Prepare{RID: rid})
		}
	}()

	next := uint64(0)
	deadline := time.After(10 * time.Second)
	for next < total {
		select {
		case env := <-ep.ch:
			var msgs []msg.Payload
			switch p := env.Payload.(type) {
			case msg.Batch:
				msgs = p.Msgs
			default:
				msgs = []msg.Payload{p}
			}
			for _, p := range msgs {
				pr, ok := p.(msg.Prepare)
				if !ok {
					t.Fatalf("payload %#v", p)
				}
				if pr.RID.Seq != next {
					t.Fatalf("seq %d arrived when %d was expected: reordered", pr.RID.Seq, next)
				}
				next++
			}
		case <-deadline:
			t.Fatalf("only %d/%d messages arrived", next, total)
		}
	}
}

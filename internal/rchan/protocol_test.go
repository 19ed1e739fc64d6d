package rchan

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

var (
	nodeA = id.AppServer(1)
	nodeB = id.AppServer(2)
)

// seqOf extracts the test payload's number (see payload).
func seqOf(env msg.Envelope) uint64 { return env.Payload.(msg.Decide).RID.Seq }

// sendN sends payloads numbered from..from+n-1 to node. It may run off the
// test goroutine, so a failed Send is an Error, not a Fatal.
func sendN(t *testing.T, ep *Endpoint, to id.NodeID, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := ep.Send(msg.Envelope{To: to, Payload: payload(uint64(i))}); err != nil {
			t.Error(err)
			return
		}
	}
}

// dedupeLen is the size of ep's duplicate-suppression set for from.
func dedupeLen(ep *Endpoint, from id.NodeID) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if p := ep.peers[from]; p != nil {
		return len(p.seen)
	}
	return 0
}

// A node that restarts under its old identity numbers its messages from 1
// again while every peer remembers its predecessor's watermark: without
// sessions the successor's first messages are acknowledged and discarded as
// duplicates — a recovering database server's Ready broadcast among them.
func TestSenderRestartIsNotABlackHole(t *testing.T) {
	const period = 10 * time.Millisecond
	a, b, net := pairEvery(t, transport.Options{}, period)
	sendN(t, a, nodeB, 0, 10)
	collect(t, b, 10, 5*time.Second)
	waitUnackedZero(t, 5*time.Second, a)

	old := a.session
	a.Close()
	net.Crash(nodeA)
	rawA2, a2 := attachWrapped(t, net, nodeA, period)
	if a2.session <= old {
		t.Fatalf("session did not grow across the restart: %d then %d", old, a2.session)
	}
	if err := a2.Send(msg.Envelope{To: nodeB, Payload: msg.Ready{Inc: 2}}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 1, 5*time.Second)
	if r, ok := got[0].Payload.(msg.Ready); !ok || r.Inc != 2 {
		t.Fatalf("delivered %#v, want the successor's Ready", got[0].Payload)
	}
	waitUnackedZero(t, 5*time.Second, a2)

	// A predecessor's frame still in the network is dropped, not delivered
	// and not allowed to roll the numbering back.
	forged := msg.RData{Session: old, Seq: 11, Low: 11, Inner: payload(99)}
	if err := rawA2.Send(msg.Envelope{To: nodeB, Payload: forged}); err != nil {
		t.Fatal(err)
	}
	sendN(t, a2, nodeB, 100, 1)
	if got := collect(t, b, 1, 5*time.Second); seqOf(got[0]) != 100 {
		t.Fatalf("delivered %d: the predecessor's frame got through", seqOf(got[0]))
	}
}

// An acknowledgement names the session it acknowledges: one meant for a
// predecessor (or forged for a successor) must not release this
// incarnation's messages.
func TestAckOfAnotherSessionIsIgnored(t *testing.T) {
	a, _, net := pairOver(t, transport.Options{})
	rawB, err := net.Attach(nodeB) // replaces b: nothing acknowledges by itself
	if err != nil {
		t.Fatal(err)
	}
	sendN(t, a, nodeB, 0, 3)
	for i, session := range []uint64{a.session - 1, a.session + 1} {
		rawB.Send(msg.Envelope{To: nodeA, Payload: msg.RAck{Session: session, Seq: 3}})
		rawB.Send(msg.Envelope{To: nodeA, Payload: msg.RData{Session: 7, Seq: uint64(i + 1), Low: 1, AckSession: session, Ack: 3, Inner: payload(0)}})
	}
	collect(t, a, 2, 5*time.Second) // the forged RDatas' payloads: on an in-order link all four frames were handled
	if got := a.Unacked(); got != 3 {
		t.Fatalf("unacked = %d after acks of other sessions, want 3", got)
	}
	rawB.Send(msg.Envelope{To: nodeA, Payload: msg.RAck{Session: a.session, Seq: 2}})
	deadline := time.Now().Add(5 * time.Second)
	for a.Unacked() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("unacked = %d after a cumulative ack of 2 of 3, want 1", a.Unacked())
		}
		time.Sleep(time.Millisecond)
	}
}

// A fresh receiver facing a long-lived sender sees numbers far above its
// watermark: without the sender's Low it can never compact its dedupe set
// (and a cumulative acknowledgement would never move).
func TestReceiverRestartCompactsAndAcknowledges(t *testing.T) {
	const period, n = 10 * time.Millisecond, 10000
	a, b, net := pairEvery(t, transport.Options{}, period)
	sendN(t, a, nodeB, 0, 10)
	collect(t, b, 10, 5*time.Second)
	waitUnackedZero(t, 5*time.Second, a)

	b.Close()
	net.Crash(nodeB)
	_, b2 := attachWrapped(t, net, nodeB, period)
	go sendN(t, a, nodeB, 10, n)
	seen := make(map[uint64]bool)
	for _, env := range collect(t, b2, n, 30*time.Second) {
		seen[seqOf(env)] = true
	}
	if len(seen) != n {
		t.Fatalf("%d distinct messages delivered, want %d", len(seen), n)
	}
	waitUnackedZero(t, 10*time.Second, a)
	// An in-order link leaves nothing above the watermark; allow a window's
	// worth for reordering.
	if got := dedupeLen(b2, nodeA); got > 256 {
		t.Fatalf("dedupe set holds %d entries after %d messages: the watermark never moved", got, n)
	}
}

// Toward a blocked peer the timer re-sends only messages a whole period old,
// oldest first, a bounded burst per tick — not the entire buffer every tick.
func TestRetransmitIsAgedOrderedAndBounded(t *testing.T) {
	const period, n = 20 * time.Millisecond, 10000
	a, b, net := pairEvery(t, transport.Options{}, period)
	net.SetBlocked(nodeA, nodeB, true)

	var mu sync.Mutex
	copies := make(map[uint64][]time.Time) // wire sequence number -> when each copy left
	net.AddSniffer(func(ev transport.SniffEvent) {
		if d, ok := ev.Payload.(msg.RData); ok && ev.From == nodeA {
			mu.Lock()
			copies[d.Seq] = append(copies[d.Seq], ev.Time)
			mu.Unlock()
		}
	})
	handed := make([]time.Time, n+1) // wire sequence number -> just before Send took the message
	start := time.Now()
	for i := 1; i <= n; i++ {
		handed[i] = time.Now()
		sendN(t, a, nodeB, i, 1)
	}
	const ticks = 40
	time.Sleep(ticks * period / 4)
	elapsed := time.Since(start)

	mu.Lock()
	resends, highest := 0, uint64(0)
	for seq, at := range copies {
		if len(at) > 1 && seq > highest {
			highest = seq
		}
		for i := 1; i < len(at); i++ {
			resends++
			if age := at[i].Sub(handed[seq]); i == 1 && age < period {
				t.Errorf("message %d re-sent at age %v, under one period", seq, age)
			}
			// Copies are stamped when they leave, a little after the timer
			// decided: allow that much slack between two of them.
			if gap := at[i].Sub(at[i-1]); i > 1 && gap < period/2 {
				t.Errorf("message %d re-sent again after %v, far under one period", seq, gap)
			}
		}
	}
	mu.Unlock()
	if resends == 0 {
		t.Fatal("nothing was retransmitted")
	}
	if limit := (int(elapsed/(period/4)) + 2) * resendBurst; resends > limit {
		t.Errorf("%d retransmissions in %v, want at most %d (%d a tick)", resends, elapsed, limit, resendBurst)
	}
	if int(highest) > resends {
		t.Errorf("message %d was re-sent after only %d retransmissions: not oldest first", highest, resends)
	}
	if got := a.Unacked(); got != n {
		t.Fatalf("unacked = %d toward a blocked peer, want %d", got, n)
	}

	net.Heal()
	counts := make(map[uint64]int)
	for _, env := range collect(t, b, n, 60*time.Second) {
		counts[seqOf(env)]++
	}
	select {
	case env := <-b.Recv():
		counts[seqOf(env)]++
	case <-time.After(5 * period):
	}
	for i := 1; i <= n; i++ {
		if counts[uint64(i)] != 1 {
			t.Fatalf("message %d delivered %d times", i, counts[uint64(i)])
		}
	}
	waitUnackedZero(t, 10*time.Second, a)
}

// Loss, duplication and reordering in both directions at once: every message
// is delivered exactly once and both buffers drain.
func TestExactlyOnceBothWaysUnderLossDupAndJitter(t *testing.T) {
	const n = 400
	a, b, _ := pairOver(t, transport.Options{LossProb: 0.3, DupProb: 0.3, Jitter: 3 * time.Millisecond, Seed: 7})
	go sendN(t, a, nodeB, 0, n)
	go sendN(t, b, nodeA, 0, n)
	var wg sync.WaitGroup
	for _, ep := range []*Endpoint{a, b} {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make(map[uint64]int)
			deadline := time.After(60 * time.Second)
			for len(counts) < n {
				select {
				case env := <-ep.Recv():
					counts[seqOf(env)]++
				case <-deadline:
					t.Errorf("%s: %d/%d delivered", ep.ID(), len(counts), n)
					return
				}
			}
			// Retransmissions still in flight must not be delivered again.
			quiet := time.After(100 * time.Millisecond)
			for {
				select {
				case env := <-ep.Recv():
					counts[seqOf(env)]++
					continue
				case <-quiet:
				}
				break
			}
			for seq, c := range counts {
				if c != 1 {
					t.Errorf("%s: message %d delivered %d times", ep.ID(), seq, c)
				}
			}
		}()
	}
	wg.Wait()
	waitUnackedZero(t, 30*time.Second, a, b)
}

// Request/reply traffic acknowledges itself: no standalone RAck while it
// flows, and once it stops only the last reply is owed one.
func TestRequestReplyTrafficNeedsNoStandaloneAcks(t *testing.T) {
	// A long period keeps a scheduling hiccup between a reply and the next
	// request from looking like silence.
	const period, rounds = 400 * time.Millisecond, 500
	a, b, net := pairEvery(t, transport.Options{}, period)
	var acks, frames atomic.Int64
	net.AddSniffer(func(ev transport.SniffEvent) {
		switch ev.Payload.(type) {
		case msg.RAck:
			acks.Add(1)
		case msg.RData:
			frames.Add(1)
		}
	})
	go func() {
		for env := range b.Recv() {
			b.Send(msg.Envelope{To: nodeA, Payload: env.Payload})
		}
	}()
	for i := 0; i < rounds; i++ {
		sendN(t, a, nodeB, i, 1)
		collect(t, a, 1, 5*time.Second)
	}
	if got := acks.Load(); got != 0 {
		t.Errorf("%d standalone acks while request/reply traffic flowed, want 0", got)
	}
	if got := frames.Load(); got != 2*rounds {
		t.Errorf("%d data frames for %d round trips, want %d", got, rounds, 2*rounds)
	}
	if a.Unacked() != 0 {
		t.Errorf("requester still holds %d unacknowledged after the last reply", a.Unacked())
	}
	waitUnackedZero(t, 2*period, b) // the last reply rides nothing: one RAck, within half a period
	time.Sleep(period)
	if got := acks.Load(); got != 1 {
		t.Errorf("%d standalone acks after traffic stopped, want 1 (the last reply's)", got)
	}
	if got := frames.Load(); got != 2*rounds {
		t.Errorf("a delayed ack provoked %d retransmissions", got-2*rounds)
	}
}

// directInner is an inner endpoint that delivers through the DirectReceiver
// hook from as many goroutines as the test likes, and loops acknowledgement
// traffic nowhere.
type directInner struct {
	recv chan msg.Envelope
	fn   atomic.Pointer[func(msg.Envelope)]
	once sync.Once
}

func (d *directInner) ID() id.NodeID                     { return nodeB }
func (d *directInner) Send(msg.Envelope) error           { return nil }
func (d *directInner) Recv() <-chan msg.Envelope         { return d.recv }
func (d *directInner) Close() error                      { d.once.Do(func() { close(d.recv) }); return nil }
func (d *directInner) SetReceiver(fn func(msg.Envelope)) { d.fn.Store(&fn) }

// The sender's Low moves the watermark past numbers that no longer exist,
// never past — or back over — a delivery already made ahead of the gap.
func TestLowSkipsTheGapNotTheDeliveriesAboveIt(t *testing.T) {
	inner := &directInner{recv: make(chan msg.Envelope)}
	ep := Wrap(inner, 10*time.Millisecond)
	defer ep.Close()
	deliver := *inner.fn.Load()
	frame := func(seq, low uint64) {
		deliver(msg.Envelope{From: nodeA, To: nodeB, Payload: msg.RData{Session: 1, Seq: seq, Low: low, Inner: payload(seq)}})
	}
	frame(5, 3) // a restarted receiver's first frames: 1 and 2 are gone, 3 and 4 outstanding
	frame(6, 3)
	frame(5, 5) // 3 and 4 were acknowledged to a predecessor after all; 5 is a retransmission
	frame(7, 5)
	frame(6, 7)
	var got []uint64
	for _, env := range collect(t, ep, 3, 5*time.Second) {
		got = append(got, seqOf(env))
	}
	select {
	case env := <-ep.Recv():
		t.Fatalf("message %d delivered twice", seqOf(env))
	case <-time.After(20 * time.Millisecond):
	}
	if got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("delivered %v, want [5 6 7]", got)
	}
	if n := dedupeLen(ep, nodeA); n != 0 {
		t.Errorf("dedupe set holds %d entries with no gap left", n)
	}
}

// handle runs on every reader goroutine of the inner endpoint at once, and
// Close may land in the middle of a delivery: each message still comes out
// exactly once and nothing sends on a closed channel (run under -race).
func TestDirectDeliveryFromManyReadersAndCloseRace(t *testing.T) {
	const readers, each = 8, 2000
	inner := &directInner{recv: make(chan msg.Envelope)}
	ep := Wrap(inner, 10*time.Millisecond)
	deliver := *inner.fn.Load()

	// Every reader plays its own peer and one shared peer, each message
	// twice, so handle races on one peer's state as well as on the map.
	shared := id.Client(99)
	var sharedSeq atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		own := id.Client(r + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= each; i++ {
				s := sharedSeq.Add(1)
				for dup := 0; dup < 2; dup++ {
					deliver(msg.Envelope{From: own, To: nodeB, Payload: msg.RData{Session: 1, Seq: i, Low: 1, Inner: payload(i)}})
					deliver(msg.Envelope{From: shared, To: nodeB, Payload: msg.RData{Session: 1, Seq: s, Low: 1, Inner: payload(s)}})
				}
			}
		}()
	}
	type key struct {
		from id.NodeID
		seq  uint64
	}
	counts := make(map[key]int)
	for _, env := range collect(t, ep, 2*readers*each, 60*time.Second) {
		counts[key{env.From, seqOf(env)}]++
	}
	wg.Wait()
	select {
	case env := <-ep.Recv():
		t.Fatalf("extra delivery %v/%d", env.From, seqOf(env))
	case <-time.After(20 * time.Millisecond):
	}
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("%v/%d delivered %d times", k.from, k.seq, c)
		}
	}
	if got := dedupeLen(ep, shared); got != 0 {
		t.Errorf("dedupe set for the shared peer holds %d entries after a gapless run", got)
	}

	// Close racing deliveries nobody reads any more (the mailbox spills).
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		from := id.Client(r + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(each + 1); ; i++ {
				select {
				case <-stop:
					return
				default:
					deliver(msg.Envelope{From: from, To: nodeB, Payload: msg.RData{Session: 1, Seq: i, Low: 1, Inner: payload(i)}})
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	ep.Close()
	time.Sleep(5 * time.Millisecond) // deliveries keep coming after Close returned
	close(stop)
	wg.Wait()
	for range ep.Recv() {
		// Drains what the channel still buffered, then sees it closed.
	}
}

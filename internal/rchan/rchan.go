// Package rchan implements the paper's reliable channels over a lossy,
// duplicating network, the way Section 5 describes: "the abstraction of
// reliable channels is implemented by retransmitting messages and tracking
// duplicates".
//
// Wrap turns any transport.Endpoint into one whose sends satisfy the
// termination property (if neither endpoint crashes, the message is
// eventually delivered: unacknowledged messages are retransmitted forever)
// and whose deliveries satisfy integrity (at most one delivery per message
// per receiver incarnation: duplicates are suppressed by per-sender sequence
// numbers).
//
// # The acknowledgement protocol
//
// Every message to a peer travels as an RData numbered in the sender's
// sequence space toward that peer, and every RData also carries the state of
// the opposite direction, so that request/reply traffic acknowledges itself
// and a standalone RAck frame is the exception:
//
//   - Session stamps both sequence spaces. It is the process's start time in
//     nanoseconds, so it grows across restarts of one identity (a clock
//     stepped backwards across a restart is the one case it does not cover).
//     A receiver that sees a newer session forgets the old numbering; frames
//     of an older session are dropped; an acknowledgement names the session
//     it acknowledges and is ignored by any other.
//   - Ack (with AckSession) is cumulative: everything the peer sent up to
//     Ack has been delivered here. It rides on every RData, first sends and
//     retransmissions alike.
//   - Low is the sender's lowest unacknowledged number. A receiver that has
//     never seen the numbers below it (it restarted; an earlier incarnation
//     acknowledged them) moves its watermark past them instead of waiting
//     for messages that no longer exist.
//
// Two timers, both derived from the retransmit period given to Wrap. A
// delivery whose acknowledgement has found no RData to ride for a quarter of
// the period is acknowledged by a standalone RAck. A message that has gone a
// whole period unacknowledged is sent again: oldest first, at most
// resendBurst per peer per quarter period, so the traffic toward a slow or
// dead peer is bounded however much is owed to it. An acknowledgement is
// therefore at most half a period late and never provokes a retransmission
// on a link whose round trip is shorter than that.
//
// # Delivery and ordering
//
// When the inner endpoint implements transport.DirectReceiver (TCP does),
// frames are handled on the goroutine that read them off the socket and the
// payload goes straight into the Recv mailbox: one hand-off between the
// socket and the node that serves the message. Otherwise a goroutine reads
// the inner endpoint's Recv.
//
// Channels are reliable, not FIFO: a retransmitted message arrives after
// messages sent later, and concurrent Sends to one peer may reach the wire
// in either order. The protocols above never assumed otherwise.
//
// Heartbeats deliberately bypass the layer: retransmitting a stale heartbeat
// would defeat failure detection, and the detector tolerates loss by design.
package rchan

import (
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// resendBurst bounds the retransmissions toward one peer per timer tick: one
// writev drain of the TCP transport.
const resendBurst = 64

// Endpoint is a reliable-channel wrapper around an inner endpoint. It
// implements transport.Endpoint.
type Endpoint struct {
	inner      transport.Endpoint
	retransmit time.Duration // a message unacknowledged this long is sent again
	ackDelay   time.Duration // retransmit/4: how long an acknowledgement waits for a ride, and the timer's tick
	session    uint64        // this incarnation; see the package comment

	mu    sync.Mutex
	peers map[id.NodeID]*peer // guarded by mu

	mbox      *transport.Mailbox
	done      chan struct{}
	innerDone chan struct{} // closed when the inner endpoint's Recv closes
	wg        sync.WaitGroup

	closeOnce sync.Once
}

// peer is both directions of one link.
type peer struct {
	// Send half, in this endpoint's session: unacked holds the messages
	// numbered next-unacked.len()+1 … next, in order.
	next    uint64
	unacked window

	// Receive half, in the peer's session: everything numbered low or below
	// is done with (delivered, or declared gone by the peer's Low); seen
	// holds what was delivered ahead of a gap above low.
	session uint64
	low     uint64
	seen    map[uint64]struct{}
	// ackSince is when the oldest delivery not yet acknowledged arrived;
	// zero when nothing is owed.
	ackSince time.Time
}

// sent is one unacknowledged message and when it last went out.
type sent struct {
	p  msg.Payload
	at time.Time
}

// window is a FIFO of sent messages with consecutive sequence numbers; only
// the number of the newest (peer.next) is stored.
type window struct {
	buf  []sent
	head int // buf[:head] is acknowledged and zeroed
}

// live is the unacknowledged messages, oldest first.
func (w *window) live() []sent { return w.buf[w.head:] }

func (w *window) len() int { return len(w.live()) }

func (w *window) push(s sent) { w.buf = append(w.buf, s) }

// drop forgets the n oldest messages.
func (w *window) drop(n int) {
	for i := w.head; i < w.head+n; i++ {
		w.buf[i] = sent{} // release the payload
	}
	w.head += n
	switch {
	case w.head == len(w.buf):
		w.buf, w.head = w.buf[:0], 0
	case w.head > 64 && w.head > len(w.buf)/2:
		// Compact once the dead prefix dominates: amortized O(1) a message.
		n := copy(w.buf, w.buf[w.head:])
		for i := n; i < len(w.buf); i++ {
			w.buf[i] = sent{}
		}
		w.buf, w.head = w.buf[:n], 0
	}
}

// lowestUnacked is the sequence number of the oldest unacknowledged message,
// or the next one to be assigned when nothing is outstanding.
func (p *peer) lowestUnacked() uint64 { return p.next + 1 - uint64(p.unacked.len()) }

// ackTo applies a cumulative acknowledgement of everything up to seq.
func (p *peer) ackTo(seq uint64) {
	if seq > p.next {
		seq = p.next // never trust the wire beyond what was sent
	}
	if low := p.lowestUnacked(); seq >= low {
		p.unacked.drop(int(seq - low + 1))
	}
}

// frame builds the RData carrying the message numbered seq, together with
// everything this side has to tell the peer; the acknowledgement it carries
// settles what was owed.
func (ep *Endpoint) frame(to id.NodeID, p *peer, seq uint64, inner msg.Payload) msg.Envelope {
	p.ackSince = time.Time{}
	return msg.Envelope{To: to, Payload: msg.RData{
		Session: ep.session, Seq: seq, Low: p.lowestUnacked(),
		AckSession: p.session, Ack: p.low,
		Inner: inner,
	}}
}

// Wrap layers reliable-channel semantics over inner. retransmit is how long
// a message may stay unacknowledged before it is sent again (default 25ms);
// acknowledgements are delayed by at most half of it.
func Wrap(inner transport.Endpoint, retransmit time.Duration) *Endpoint {
	if retransmit <= 0 {
		retransmit = 25 * time.Millisecond
	}
	ep := &Endpoint{
		inner:      inner,
		retransmit: retransmit,
		ackDelay:   retransmit / 4,
		session:    uint64(time.Now().UnixNano()),
		peers:      make(map[id.NodeID]*peer),
		mbox:       transport.NewMailbox(),
		done:       make(chan struct{}),
		innerDone:  make(chan struct{}),
	}
	ep.wg.Add(2)
	go ep.recvLoop()
	go ep.timerLoop()
	if dr, ok := inner.(transport.DirectReceiver); ok {
		// recvLoop then only picks up what arrived before this line and
		// watches for the inner endpoint's death.
		dr.SetReceiver(ep.handle)
	}
	return ep
}

// ID implements transport.Endpoint.
func (ep *Endpoint) ID() id.NodeID { return ep.inner.ID() }

// Inner exposes the wrapped endpoint so diagnostics can reach
// transport-specific state (wire counters) through the reliable layer.
func (ep *Endpoint) Inner() transport.Endpoint { return ep.inner }

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() <-chan msg.Envelope { return ep.mbox.Chan() }

// Send implements transport.Endpoint. Non-heartbeat payloads are sequenced,
// buffered and retransmitted until acknowledged.
func (ep *Endpoint) Send(env msg.Envelope) error {
	if env.Payload == nil {
		return transport.ErrClosed
	}
	if env.Payload.Kind() == msg.KindHeartbeat {
		return ep.inner.Send(env)
	}
	now := time.Now()
	ep.mu.Lock()
	p := ep.peerLocked(env.To)
	p.next++
	p.unacked.push(sent{p: env.Payload, at: now})
	out := ep.frame(env.To, p, p.next, env.Payload)
	ep.mu.Unlock()
	return ep.inner.Send(out)
}

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	var err error
	ep.closeOnce.Do(func() {
		close(ep.done)
		err = ep.inner.Close()
		ep.mbox.Close()
		ep.wg.Wait()
	})
	return err
}

// Unacked returns the number of buffered unacknowledged messages
// (observability for tests and memory ablations).
func (ep *Endpoint) Unacked() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	n := 0
	for _, p := range ep.peers {
		n += p.unacked.len()
	}
	return n
}

func (ep *Endpoint) peerLocked(node id.NodeID) *peer {
	p := ep.peers[node]
	if p == nil {
		p = &peer{seen: make(map[uint64]struct{})}
		ep.peers[node] = p
	}
	return p
}

// recvLoop handles whatever the inner endpoint delivers through Recv and
// notices its death (a node crash closes Recv without Close being called).
func (ep *Endpoint) recvLoop() {
	defer ep.wg.Done()
	for {
		select {
		case env, ok := <-ep.inner.Recv():
			if !ok {
				close(ep.innerDone)
				ep.mbox.Close()
				return
			}
			ep.handle(env)
		case <-ep.done:
			return
		}
	}
}

// handle processes one frame from the inner endpoint. It runs on recvLoop
// or, under a DirectReceiver, on the inner endpoint's reader goroutines —
// several at once — and never blocks.
func (ep *Endpoint) handle(env msg.Envelope) {
	//etxlint:allow kindswitch — the reliable channel only interprets its own framing (RData/RAck); every other kind is opaque cargo inside RData.Inner
	switch m := env.Payload.(type) {
	case msg.RData:
		if ep.accept(env.From, m) {
			ep.mbox.Put(msg.Envelope{From: env.From, To: env.To, Payload: m.Inner})
		}
	case msg.RAck:
		ep.mu.Lock()
		if p := ep.peers[env.From]; p != nil && m.Session == ep.session {
			p.ackTo(m.Seq)
		}
		ep.mu.Unlock()
	default:
		// Unsequenced traffic (heartbeats) passes straight through.
		ep.mbox.Put(env)
	}
}

// accept applies d's acknowledgement and watermark and reports whether its
// payload is a first delivery. Every copy, first or not, leaves an
// acknowledgement owed: a duplicate means the last one may have been lost.
func (ep *Endpoint) accept(from id.NodeID, d msg.RData) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	p := ep.peerLocked(from)
	switch {
	case d.Session < p.session:
		return false // a predecessor's frame, still in the network
	case d.Session > p.session:
		// The peer restarted: its numbering starts over.
		p.session, p.low = d.Session, 0
		clear(p.seen)
	}
	if d.AckSession == ep.session {
		p.ackTo(d.Ack)
	}
	if d.Low > p.low+1 {
		// Nothing below Low exists any more; only a restarted receiver can
		// be behind it.
		p.low = d.Low - 1
		for s := range p.seen {
			if s <= p.low {
				delete(p.seen, s)
			}
		}
		p.advance()
	}
	if p.ackSince.IsZero() {
		p.ackSince = time.Now()
	}
	switch {
	case d.Seq <= p.low:
		return false
	case d.Seq > p.low+1:
		// Ahead of a gap: remember it until the watermark catches up.
		_, dup := p.seen[d.Seq]
		p.seen[d.Seq] = struct{}{}
		return !dup
	}
	p.low++ // next in order
	p.advance()
	return true
}

// advance moves the watermark over what was delivered ahead of it.
func (p *peer) advance() {
	for len(p.seen) > 0 {
		if _, ok := p.seen[p.low+1]; !ok {
			return
		}
		p.low++
		delete(p.seen, p.low)
	}
}

// timerLoop runs both timers off one ticker.
func (ep *Endpoint) timerLoop() {
	defer ep.wg.Done()
	ticker := time.NewTicker(ep.ackDelay)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, env := range ep.due(time.Now()) {
				_ = ep.inner.Send(env) // a closed inner endpoint ends the loop through innerDone or done
			}
		case <-ep.innerDone:
			return
		case <-ep.done:
			return
		}
	}
}

// due collects what the timers owe at now: per peer, the oldest messages
// that have gone a whole period unacknowledged (a bounded burst), or else a
// standalone acknowledgement if one has waited long enough — a
// retransmission carries the acknowledgement itself.
func (ep *Endpoint) due(now time.Time) []msg.Envelope {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	var out []msg.Envelope
	for to, p := range ep.peers {
		low, burst := p.lowestUnacked(), 0
		live := p.unacked.live()
		for i := range live {
			if now.Sub(live[i].at) < ep.retransmit {
				continue // sent again recently, or not yet a period old
			}
			live[i].at = now
			out = append(out, ep.frame(to, p, low+uint64(i), live[i].p))
			if burst++; burst == resendBurst {
				break
			}
		}
		if !p.ackSince.IsZero() && now.Sub(p.ackSince) >= ep.ackDelay {
			p.ackSince = time.Time{}
			out = append(out, msg.Envelope{To: to, Payload: msg.RAck{Session: p.session, Seq: p.low}})
		}
	}
	return out
}

// Compile-time interface check.
var _ transport.Endpoint = (*Endpoint)(nil)

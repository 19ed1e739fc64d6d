package tcptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/lint/leakcheck"
	"etx/internal/msg"
	"etx/internal/transport"
)

// peerLink returns ep's write side toward peer (nil before the first Send).
func peerLink(ep *Endpoint, peer id.NodeID) *peerConn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.writers[peer]
}

// waitIdle waits until nothing is queued, in the writer's hands or left as
// a residual on pc: the state in which Send may write inline.
func waitIdle(t *testing.T, pc *peerConn) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pc.unsent.Load() != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("link never went idle (%d unsent)", pc.unsent.Load())
		}
	}
}

// seqBody is the payload of sender's frame seq. Sizes cycle from a few
// bytes to above the read buffer, sender 0's frame 1 is 1 MiB, and every
// byte is derived from (sender, seq, offset), so a byte from any other
// frame — or from the wrong offset — is caught.
func seqBody(sender, seq int) []byte {
	sizes := []int{40, 700, 9000, 70000, 300}
	n := sizes[(sender+seq)%len(sizes)]
	if sender == 0 && seq == 1 {
		n = 1 << 20
	}
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(sender*131 + seq*7 + i)
	}
	return body
}

// frameReader reads length-prefixed frames off a raw connection and checks
// that each sender's frames arrive complete, byte-exact and in send order.
// It reads only while fewer than allowed frames have been read, and pauses
// 200µs after every 8 frames: a slow peer, or a stalled one.
type frameReader struct {
	allowed atomic.Int64
	read    atomic.Int64
	next    map[int]int // sender -> next expected seq (reader goroutine only)
	err     chan error
}

func newFrameReader() *frameReader {
	return &frameReader{next: make(map[int]int), err: make(chan error, 1)}
}

func (r *frameReader) run(c net.Conn) {
	var hdr [4]byte
	for {
		for r.read.Load() >= r.allowed.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			r.fail(err)
			return
		}
		buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c, buf); err != nil {
			r.fail(err)
			return
		}
		env, err := msg.Decode(buf)
		if err != nil {
			r.fail(fmt.Errorf("frame %d does not decode: %w", r.read.Load(), err))
			return
		}
		req, ok := env.Payload.(msg.Request)
		if !ok {
			r.fail(fmt.Errorf("frame %d: payload %T", r.read.Load(), env.Payload))
			return
		}
		sender, seq := req.RID.Client.Index, int(req.RID.Seq)
		if want := r.next[sender]; seq != want {
			r.fail(fmt.Errorf("sender %d: frame %d arrived when %d was due (FIFO broken or frame lost)", sender, seq, want))
			return
		}
		if !bytes.Equal(req.Body, seqBody(sender, seq)) {
			r.fail(fmt.Errorf("sender %d frame %d: body corrupted (%d bytes)", sender, seq, len(req.Body)))
			return
		}
		r.next[sender] = seq + 1
		if r.read.Add(1)%8 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// fail records the reader's first error.
func (r *frameReader) fail(err error) {
	select {
	case r.err <- err:
	default:
	}
}

// waitRead waits until the reader has verified n frames.
func (r *frameReader) waitRead(t *testing.T, n int64) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); r.read.Load() < n; time.Sleep(100 * time.Microsecond) {
		select {
		case err := <-r.err:
			t.Fatal(err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames arrived", r.read.Load(), n)
		}
	}
}

// TestInlineAndQueuedFramesStayFIFO mixes inline and queued writes on one
// link, including inline writes the kernel takes only part of, and checks
// every frame arrives whole, byte-exact and in per-sender order.
//
//   - A: with a small send buffer and the peer not reading, an idle link's
//     inline write of a 1 MiB frame is short; the frames sent after it
//     queue behind its residual.
//   - B: eight senders with random pacing against a slow reader, so the
//     link keeps changing hands between Send and the writer.
//   - C: one sender whose every frame finds the link idle goes inline.
func TestInlineAndQueuedFramesStayFIFO(t *testing.T) {
	leakcheck.Check(t)
	ln, addr := rawListener(t)
	peer := id.AppServer(2)
	ep, err := Listen(Config{
		Self: id.AppServer(1), Listen: "127.0.0.1:0",
		Peers:        map[id.NodeID]string{peer: addr},
		QueueDepth:   1 << 16,     // nothing may drop: every frame is checked
		WriteTimeout: time.Minute, // the slow reader must not trip it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	rd := newFrameReader()
	rd.allowed.Store(1)
	conns := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- c
		rd.run(c)
	}()
	sent := int64(0)
	send := func(sender, seq int) {
		rid := id.ResultID{Client: id.Client(sender), Seq: uint64(seq), Try: 1}
		if err := ep.Send(msg.Envelope{To: peer, Payload: msg.Request{RID: rid, Body: seqBody(sender, seq)}}); err != nil {
			t.Errorf("send %d/%d: %v", sender, seq, err)
		}
	}

	// A. The first frame dials (through the writer); then the send buffer
	// shrinks and the reader stalls.
	send(0, 0)
	sent++
	rd.waitRead(t, sent)
	var conn net.Conn
	select {
	case conn = <-conns:
	case <-time.After(10 * time.Second):
		t.Fatal("peer never accepted")
	}
	defer conn.Close()
	pc := peerLink(ep, peer)
	waitIdle(t, pc)
	c, _ := pc.link()
	tc := c.(*net.TCPConn)
	if err := tc.SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	before := ep.Stats()
	send(0, 1)
	after := ep.Stats()
	if after.InlineWrites != before.InlineWrites || after.FramesSent != before.FramesSent ||
		after.WritevCalls != before.WritevCalls+1 || after.BytesSent == before.BytesSent {
		t.Fatalf("want one short inline write of the 1 MiB frame; stats before %s, after %s", before, after)
	}
	for seq := 2; seq < 6; seq++ {
		send(0, seq)
	}
	sent = 6
	// A send buffer this small would throttle the rest to the pace of
	// delayed acks.
	if err := tc.SetWriteBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}

	// B. Release the reader and let eight senders race.
	rd.allowed.Store(1 << 62)
	rd.waitRead(t, sent)
	const senders, perSender = 8, 150
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for seq := 0; seq < perSender; seq++ {
				send(s, seq)
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(s)
	}
	wg.Wait()
	sent += senders * perSender
	rd.waitRead(t, sent)

	// C. A sender alone on an idle link writes inline.
	inline0 := ep.Stats().InlineWrites
	for seq := 6; seq < 46; seq++ {
		waitIdle(t, pc)
		send(0, seq)
		sent++
		rd.waitRead(t, sent)
	}
	st := ep.Stats()
	if st.InlineWrites == inline0 {
		t.Errorf("no inline write on an idle link: %s", st)
	}
	if st.QueueDrops != 0 || st.ConnDrops != 0 {
		t.Errorf("frames dropped: %s", st)
	}
	if st.FramesSent != uint64(sent) {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, sent)
	}
	if st.InlineWrites == 0 || st.InlineWrites >= st.FramesSent {
		t.Errorf("want a mix of inline and queued frames: %s", st)
	}
}

// TestSendNeverBlocksOnStalledPeer: a peer that accepts the connection and
// never reads fills the kernel buffers and then the queue. 10 000 Sends
// must all return regardless — only the writer blocks, in its flush — and
// every frame is accounted for: on the wire, dropped and counted, queued,
// or in the writer's blocked flush.
func TestSendNeverBlocksOnStalledPeer(t *testing.T) {
	leakcheck.Check(t)
	ln, addr := rawListener(t)
	peer := id.AppServer(2)
	const depth, maxWritev, frames = 64, 64, 10000
	ep, err := Listen(Config{
		Self: id.AppServer(1), Listen: "127.0.0.1:0",
		Peers:        map[id.NodeID]string{peer: addr},
		QueueDepth:   depth,
		MaxWritev:    maxWritev,
		WriteTimeout: time.Minute, // far beyond the test: a parked Send would show
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	held := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.(*net.TCPConn).SetReadBuffer(4 << 10)
		held <- c
	}()
	defer func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	}()

	body := make([]byte, 4<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			rid := id.ResultID{Client: id.Client(1), Seq: uint64(i), Try: 1}
			if err := ep.Send(msg.Envelope{To: peer, Payload: msg.Request{RID: rid, Body: body}}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("Send blocked behind a peer that never reads: %s", ep.Stats())
	}
	st := ep.Stats()
	t.Logf("after %d sends: %s", frames, st)
	if st.QueueDrops == 0 {
		t.Fatalf("no drops counted against a peer that never reads: %s", st)
	}
	accounted := st.FramesSent + st.QueueDrops + uint64(st.Queued)
	if accounted > frames || frames-accounted > maxWritev+1 {
		t.Fatalf("%d of %d frames unaccounted for (%s); at most one drain plus a residual may be in flight",
			frames-accounted, frames, st)
	}
}

// TestCloseRacesInlineWrites closes an endpoint while its sender is in the
// middle of inline writes: no panic or race, Send reports ErrClosed after
// Close, and every goroutine exits (pairUp's leakcheck).
func TestCloseRacesInlineWrites(t *testing.T) {
	for round := 0; round < 10; round++ {
		t.Run(fmt.Sprint(round), func(t *testing.T) {
			a, b := pairUp(t, id.AppServer(1), id.AppServer(2))
			rng := rand.New(rand.NewSource(int64(round)))
			stop := make(chan struct{})
			sendErr := make(chan error, 1)
			go func() {
				for seq := uint64(0); ; seq++ {
					// Ping-pong: every frame finds the link idle.
					if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Heartbeat{Seq: seq}}); err != nil {
						sendErr <- err
						return
					}
					select {
					case <-b.Recv():
					case <-stop:
						sendErr <- nil
						return
					}
				}
			}()
			for deadline := time.Now().Add(10 * time.Second); a.Stats().InlineWrites == 0; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the ping-pong never wrote inline: %s", a.Stats())
				}
			}
			time.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
			a.Close()
			var err error
			select {
			case err = <-sendErr:
			case <-time.After(time.Second):
				// The last frame was lost with the connection: stop waiting.
				close(stop)
				err = <-sendErr
			}
			if err != nil && !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Send after Close: %v", err)
			}
			if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Heartbeat{}}); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Send on a closed endpoint returned %v, want ErrClosed", err)
			}
		})
	}
}

// TestMaxWritevOneIsOneFramePerWrite: with the flush cap at one frame —
// the historical transport — every kernel write, inline or the writer's,
// carries exactly one frame, under concurrent senders.
func TestMaxWritevOneIsOneFramePerWrite(t *testing.T) {
	leakcheck.Check(t)
	a, err := Listen(Config{Self: id.AppServer(1), Listen: "127.0.0.1:0", MaxWritev: 1, QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Config{Self: id.AppServer(2), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.SetPeers(map[id.NodeID]string{b.ID(): b.Addr()})

	const senders, perSender = 4, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				rid := id.ResultID{Client: id.Client(s + 1), Seq: uint64(i), Try: 1}
				if err := a.Send(msg.Envelope{To: b.ID(), Payload: msg.Prepare{RID: rid}}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for i := 0; i < senders*perSender; i++ {
		recvOne(t, b, 10*time.Second)
	}
	st := a.Stats()
	if st.FramesSent != senders*perSender || st.WritevCalls != st.FramesSent {
		t.Fatalf("MaxWritev 1: %d frames in %d kernel writes, want one frame per write (%s)", st.FramesSent, st.WritevCalls, st)
	}
	if st.Coalesced != 0 {
		t.Errorf("Coalesced = %d with a one-frame cap", st.Coalesced)
	}
}

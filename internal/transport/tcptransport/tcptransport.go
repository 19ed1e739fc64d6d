// Package tcptransport implements the transport abstraction over real TCP,
// for multi-process deployments (the cmd/ binaries). Frames are
// length-prefixed msg.Encode payloads; each direction of a link dials its
// own connection lazily and drops messages on connection failure — the
// fair-loss behaviour the reliable-channel layer (internal/rchan) is
// designed to sit on.
//
// # Send path
//
// Send encodes the envelope into a pooled frame and never blocks: a stalled
// or unreachable peer can never wedge a sending goroutine. Where the frame
// goes depends on the link.
//
// An idle link — connected, nothing queued or partly written ahead of the
// frame, no write in progress — is written inline: Send makes one
// non-blocking write on its own goroutine and returns, so a request/reply
// hop costs no goroutine wake-up. If the kernel takes only part of the
// frame, the tail stays behind as the link's residual and the writer
// finishes it before anything else, so frames stay whole and in order.
//
// Otherwise the frame goes through a bounded queue to the peer's writer
// goroutine. Once woken, the writer yields the processor once, so the
// goroutines already runnable — the senders of a busy link's next frames —
// run first; then it drains whatever is queued and flushes the drain to the
// kernel in one scatter-gather writev (net.Buffers) without coalescing the
// frames through a copy; a build-tagged fallback (-tags etx_nowritev,
// writev_fallback.go) coalesces into a single buffered write for platforms
// where writev buys nothing. Every writer flush runs under
// Config.WriteTimeout — a peer that accepts the connection but stops
// reading trips the deadline, the connection is dropped (fair loss, same as
// the redial-on-error path) and the next drain redials. A full queue
// likewise drops the frame rather than blocking the sender. The writer also
// dials: a link's first frame, and the first after a drop, is always queued.
//
// Inline writes switch themselves off on a busy link, where the writer's
// batching is worth more than the saved wake-up; see writerTurn.
//
// # Receive path
//
// The mirror image: each incoming connection's reader goroutine reads
// through a 64 KiB buffer, so one read syscall takes in every frame the
// peer's writev coalesced, and decodes each frame in place (msg.Decode
// copies every variable-length field out, so the buffer is reused at once).
// A frame larger than the buffer gets a one-shot allocation; a frame that
// does not decode is skipped and the stream continues. A decoded envelope
// goes, on the reader goroutine itself, to the function installed with
// SetReceiver — the reliable-channel layer installs its handler, so nothing
// stands between the socket and the node's mailbox — or, on a bare endpoint,
// into the transport.Mailbox behind Recv. Frames from one connection are
// handed over in the order they were written; connections are independent.
//
// Wire pressure is counted (frames/bytes in both directions, kernel
// flushes, queue drops, connection drops, coalescing copies — zero on the
// writev path) and exposed through Stats/WireStats.
package tcptransport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/transport"
)

// maxFrame bounds a frame to guard against corrupted length prefixes.
const maxFrame = 32 << 20

// retainedReadBuf is the read buffer every incoming connection keeps: one
// read syscall fills it with as many frames as the peer coalesced. Frames
// above it get a one-shot allocation instead of pinning megabytes on every
// idle connection.
const retainedReadBuf = 64 << 10

// Config parameterizes a TCP endpoint.
type Config struct {
	// Self is this process's identity.
	Self id.NodeID
	// Listen is the local listen address (host:port).
	Listen string
	// Peers maps every other node to its listen address.
	Peers map[id.NodeID]string
	// DialTimeout bounds connection attempts. Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds one writer flush (the writev covering a whole
	// queue drain; an inline write never blocks, so it needs none). A peer
	// that stops reading trips the deadline and the connection is dropped —
	// fair loss — instead of wedging the writer while frames pile up behind
	// it. Default 5s.
	WriteTimeout time.Duration
	// QueueDepth bounds each peer's outbound frame queue; a send finding
	// the queue full drops the frame (fair loss, counted). Default 1024.
	QueueDepth int
	// MaxWritev caps the frames one kernel flush covers. Default 64;
	// 1 reproduces the historical one-write-per-frame transport (the
	// parity tests' one-frame-per-write reference).
	MaxWritev int
}

func (c *Config) setDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxWritev <= 0 {
		c.MaxWritev = 64
	}
}

// Endpoint is a TCP-backed transport.Endpoint.
type Endpoint struct {
	cfg Config
	ln  net.Listener

	// dialCtx cancels in-flight dials on Close so a writer blocked in a
	// connection attempt cannot delay teardown.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu       sync.Mutex
	shut     bool // guarded by mu — Close has begun; no new writers
	writers  map[id.NodeID]*peerConn
	accepted map[net.Conn]bool

	mbox     *transport.Mailbox                 // deliveries nobody took directly
	receiver atomic.Pointer[func(msg.Envelope)] // SetReceiver's hook, nil on a bare endpoint
	done     chan struct{}
	wg       sync.WaitGroup
	closed   sync.Once

	// Wire counters, snapshotted by Stats (etxlint statswired).
	framesSent  metrics.Counter
	bytesSent   metrics.Counter
	framesRecv  metrics.Counter
	bytesRecv   metrics.Counter
	writevCalls metrics.Counter // kernel writes: writer flushes and inline writes
	inline      metrics.Counter // frames Send wrote whole on its own goroutine
	coalesced   metrics.Counter // frames copied into a coalescing buffer (fallback only)
	queueDrops  metrics.Counter // frames dropped on a full peer queue
	connDrops   metrics.Counter // connections dropped on write error or deadline
	queued      metrics.Gauge   // frames currently queued across peers
}

// The inline gate. Inline writes save a wake-up per frame but give up the
// writer's batching, so a busy link belongs to the writer. Busy is judged by
// counts, never by time. A Send that finds frames ahead of it, or another
// write in progress, queues its own frame; if the link really is busy, the
// frames pile up behind it while the writer yields, and the writer's drain
// coalesces them. A drain that coalesced more than one frame, or an inline
// write the kernel took only part of (or none of: EAGAIN), leaves the next
// writerTurn frames to the writer, and a link that stays busy keeps renewing
// the turn. A lone collision does not: two senders meeting once on an idle
// link cost one frame its inline write, not the next sixteen.
const writerTurn = 16

// peerConn is one peer's write side: a bounded frame queue drained by a
// dedicated writer goroutine that owns dialing, and the inline path Send
// takes on an idle link. The writer persists across redials; only the
// connection is dropped on error.
type peerConn struct {
	peer id.NodeID
	q    chan *[]byte
	kick chan struct{} // wakes the writer to finish a residual

	mu sync.Mutex
	c  net.Conn        // guarded by mu — live conn, nil between drops and redials
	rc syscall.RawConn // guarded by mu — c's descriptor, for the inline write

	// wmu serializes kernel writes on the link: the writer holds it for a
	// flush, an inline Send for its one attempt (TryLock: a Send never
	// waits for it).
	wmu      sync.Mutex
	residual []byte   // guarded by wmu — unwritten tail of a short inline write
	resFrame *[]byte  // guarded by wmu — the pooled frame residual lies in
	resConn  net.Conn // guarded by wmu — the connection the frame's head went to
	out      []byte   // guarded by wmu — the inline attempt's frame, for writeOnce
	outN     int      // guarded by wmu — writeOnce's result
	outErr   error    // guarded by wmu — writeOnce's result
	// writeOnce is the inline attempt's raw-write callback: a single
	// write(2) that reports done whatever happened, so EAGAIN comes back
	// to the caller instead of parking it on the poller. Built once per
	// link so an attempt allocates nothing.
	writeOnce func(fd uintptr) bool

	// unsent counts frames handed to the link but not yet to the kernel:
	// queued, drained by the writer and not yet flushed, or a residual.
	// Send writes inline only at zero, which keeps the link FIFO.
	unsent atomic.Int64
	// turns is how many more frames Send leaves to the writer before it
	// tries inline again (the inline gate).
	turns atomic.Int32
}

func newPeerConn(peer id.NodeID, depth int) *peerConn {
	pc := &peerConn{peer: peer, q: make(chan *[]byte, depth), kick: make(chan struct{}, 1)}
	pc.writeOnce = func(fd uintptr) bool {
		pc.outN, pc.outErr = syscall.Write(int(fd), pc.out)
		return true
	}
	return pc
}

// link returns the live connection and its descriptor (nil, nil between a
// drop and the redial).
func (pc *peerConn) link() (net.Conn, syscall.RawConn) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.c, pc.rc
}

func (pc *peerConn) setConn(c net.Conn) {
	var rc syscall.RawConn
	if sc, ok := c.(syscall.Conn); ok {
		rc, _ = sc.SyscallConn() // no descriptor: every frame goes through the writer
	}
	pc.mu.Lock()
	pc.c, pc.rc = c, rc
	pc.mu.Unlock()
}

// closeConn drops the live connection (if any); the writer redials on the
// next drain.
func (pc *peerConn) closeConn() {
	pc.mu.Lock()
	c := pc.c
	pc.c, pc.rc = nil, nil
	pc.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// dropConn drops c after a failed write, if it is still the live
// connection: the drop is counted once, and the writer redials on its next
// drain.
func (ep *Endpoint) dropConn(pc *peerConn, c net.Conn) {
	pc.mu.Lock()
	live := c != nil && pc.c == c
	if live {
		pc.c, pc.rc = nil, nil
	}
	pc.mu.Unlock()
	if live {
		ep.connDrops.Inc()
		c.Close()
	}
}

// framePool recycles frame buffers across Sends; the batched hot path sends
// thousands of envelopes per second and must not allocate one slice each.
// Ownership transfers with the frame: Send fills a frame and enqueues it,
// the writer returns it to the pool only after the kernel flush that
// consumed it (or Send itself, when the queue is full or it wrote the frame
// inline; a short inline write passes the frame on as the residual).
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func putFrame(f *[]byte) {
	*f = (*f)[:0]
	framePool.Put(f)
}

// Listen starts a TCP endpoint for cfg.Self on cfg.Listen.
func Listen(cfg Config) (*Endpoint, error) {
	cfg.setDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Listen, err)
	}
	ep := &Endpoint{
		cfg:      cfg,
		ln:       ln,
		writers:  make(map[id.NodeID]*peerConn),
		accepted: make(map[net.Conn]bool),
		mbox:     transport.NewMailbox(),
		done:     make(chan struct{}),
	}
	ep.dialCtx, ep.dialCancel = context.WithCancel(context.Background())
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// ListenLoopback opens one endpoint per id on 127.0.0.1:0 and then installs
// the complete address book on every one of them: the two-pass wiring of a
// TCP deployment inside one process, where no address is known before its
// listener is bound. cfg supplies every setting but Self, Listen and Peers.
// On error the endpoints already open are closed.
func ListenLoopback(cfg Config, ids ...id.NodeID) (map[id.NodeID]*Endpoint, error) {
	eps := make(map[id.NodeID]*Endpoint, len(ids))
	book := make(map[id.NodeID]string, len(ids))
	for _, n := range ids {
		cfg.Self, cfg.Listen, cfg.Peers = n, "127.0.0.1:0", nil
		ep, err := Listen(cfg)
		if err != nil {
			for _, open := range eps {
				open.Close()
			}
			return nil, err
		}
		eps[n] = ep
		book[n] = ep.Addr()
	}
	for _, ep := range eps {
		ep.SetPeers(book)
	}
	return eps, nil
}

// Addr returns the bound listen address (useful with ":0").
func (ep *Endpoint) Addr() string { return ep.ln.Addr().String() }

// SetPeers replaces the address book. Two-pass wiring support: listen on
// ":0" everywhere first, gather the bound addresses, then install the
// complete book before the protocol starts.
func (ep *Endpoint) SetPeers(book map[id.NodeID]string) {
	cp := make(map[id.NodeID]string, len(book))
	for k, v := range book {
		cp[k] = v
	}
	ep.mu.Lock()
	ep.cfg.Peers = cp
	ep.mu.Unlock()
}

// ID implements transport.Endpoint.
func (ep *Endpoint) ID() id.NodeID { return ep.cfg.Self }

// Recv implements transport.Endpoint.
func (ep *Endpoint) Recv() <-chan msg.Envelope { return ep.mbox.Chan() }

// SetReceiver implements transport.DirectReceiver: fn runs on the reader
// goroutine of whichever connection a frame arrived on.
func (ep *Endpoint) SetReceiver(fn func(msg.Envelope)) { ep.receiver.Store(&fn) }

// Close implements transport.Endpoint.
func (ep *Endpoint) Close() error {
	var err error
	ep.closed.Do(func() {
		ep.mu.Lock()
		ep.shut = true
		ep.mu.Unlock()
		close(ep.done)
		ep.dialCancel()
		err = ep.ln.Close()
		ep.mu.Lock()
		for _, pc := range ep.writers {
			pc.closeConn()
		}
		// Incoming connections must be closed too or their read loops would
		// block in Read forever and Wait would never return.
		for c := range ep.accepted {
			c.Close()
		}
		ep.accepted = make(map[net.Conn]bool)
		ep.mu.Unlock()
		ep.wg.Wait()
		// The readers have exited, so nothing delivers any more.
		ep.mbox.Close()
		// The writers have exited; recycle whatever they left queued.
		ep.mu.Lock()
		for _, pc := range ep.writers {
			for {
				select {
				case f := <-pc.q:
					putFrame(f)
				default:
					goto drained
				}
			}
		drained:
		}
		ep.writers = make(map[id.NodeID]*peerConn)
		ep.mu.Unlock()
	})
	return err
}

// Send implements transport.Endpoint. It encodes the envelope into a pooled
// frame and either writes it inline, when the destination's link is idle,
// or enqueues it on the destination's writer — without ever blocking: an
// unreachable, stalled or backlogged peer silently drops the message
// (fair-loss link). The steady state allocates nothing per send.
func (ep *Endpoint) Send(env msg.Envelope) error {
	select {
	case <-ep.done:
		return transport.ErrClosed
	default:
	}
	env.From = ep.cfg.Self
	bufp := framePool.Get().(*[]byte)
	// Reserve the 4-byte length prefix, then encode directly behind it.
	frame := append((*bufp)[:0], 0, 0, 0, 0)
	frame, err := msg.AppendEncode(frame, env)
	if err != nil {
		putFrame(bufp)
		return fmt.Errorf("tcptransport: encode: %w", err)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	*bufp = frame
	pc, err := ep.writer(env.To)
	if err != nil {
		putFrame(bufp)
		return err
	}
	if ep.writeInline(pc, bufp) {
		return nil
	}
	pc.unsent.Add(1)
	select {
	case pc.q <- bufp:
		ep.queued.Inc()
	default:
		// Bounded queue full: the peer is slower than the senders. Fair loss.
		pc.unsent.Add(-1)
		ep.queueDrops.Inc()
		putFrame(bufp)
	}
	return nil
}

// writeInline hands frame f to the kernel on the caller's goroutine if the
// link is idle and the inline gate is open, making exactly one
// non-blocking write: it never parks, whatever the socket's state. It
// reports whether it took the frame; false means nothing was written and
// the caller queues f for the writer. A short write leaves the tail as the
// link's residual and kicks the writer to finish it.
func (ep *Endpoint) writeInline(pc *peerConn, f *[]byte) bool {
	if pc.turns.Load() > 0 {
		pc.turns.Add(-1)
		return false
	}
	if pc.unsent.Load() != 0 || !pc.wmu.TryLock() {
		return false // frames ahead, or another write in progress
	}
	defer pc.wmu.Unlock()
	if pc.unsent.Load() != 0 {
		return false // the writer got in first
	}
	c, rc := pc.link()
	if rc == nil {
		return false // not connected: the writer dials
	}
	pc.out = *f
	err := rc.Write(pc.writeOnce) // calls writeOnce at most once, synchronously
	n := pc.outN
	if err == nil {
		err = pc.outErr
	}
	pc.out, pc.outErr = nil, nil
	if n <= 0 || err != nil {
		// Nothing written. The writer's blocking, deadline-bounded flush
		// deals with whatever it was: a full socket buffer (EAGAIN, which
		// also means the link is busy), the expired deadline of its own
		// last flush, or a broken connection.
		if err == syscall.EAGAIN {
			pc.turns.Store(writerTurn)
		}
		return false
	}
	ep.writevCalls.Inc()
	ep.bytesSent.Add(uint64(n))
	if n < len(*f) {
		pc.residual, pc.resFrame, pc.resConn = (*f)[n:], f, c
		pc.unsent.Add(1)
		pc.turns.Store(writerTurn)
		select {
		case pc.kick <- struct{}{}:
		default:
		}
		return true
	}
	ep.framesSent.Inc()
	ep.inline.Inc()
	putFrame(f)
	return true
}

// writer returns (starting if needed) the writer goroutine for peer. The
// writer outlives individual connections: it redials after drops and exits
// only when the endpoint closes.
func (ep *Endpoint) writer(peer id.NodeID) (*peerConn, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.shut {
		return nil, transport.ErrClosed
	}
	pc := ep.writers[peer]
	if pc == nil {
		pc = newPeerConn(peer, ep.cfg.QueueDepth)
		ep.writers[peer] = pc
		ep.wg.Add(1)
		go ep.writeLoop(pc)
	}
	return pc, nil
}

// writeLoop drains one peer's frame queue and flushes each drain to the
// kernel in a single vectored write, after finishing any residual an inline
// write left. Dial failures and write errors drop the drained frames (fair
// loss) and the next drain starts over with a fresh connection attempt.
//
// A woken writer yields once before it drains. On a busy link the frames'
// senders are runnable, and they run first: their frames join this drain
// instead of each waking the writer again. On an idle link the yield costs
// nothing that matters — the writer only wakes for a frame Send could not
// write inline.
func (ep *Endpoint) writeLoop(pc *peerConn) {
	defer ep.wg.Done()
	defer pc.closeConn()
	frames := make([]*[]byte, 0, ep.cfg.MaxWritev)
	for {
		frames = frames[:0]
		select {
		case f := <-pc.q:
			frames = append(frames, f)
		case <-pc.kick:
		case <-ep.done:
			return
		}
		// Opportunistic drain: everything queued behind the first frame,
		// once the yield let it arrive, rides the same kernel flush.
		runtime.Gosched()
	drain:
		for len(frames) < ep.cfg.MaxWritev {
			select {
			case f := <-pc.q:
				frames = append(frames, f)
			default:
				break drain
			}
		}
		ep.queued.Add(-int64(len(frames)))
		if len(frames) > 1 {
			pc.turns.Store(writerTurn) // batching pays on this link
		}
		c, _ := pc.link()
		if c == nil && len(frames) > 0 {
			c = ep.dial(pc)
		}
		ep.writeDrain(pc, c, frames)
		for _, f := range frames {
			putFrame(f)
		}
	}
}

// writeDrain writes the link's residual, if any, and then frames to c
// (nil: the dial failed, and everything is dropped).
func (ep *Endpoint) writeDrain(pc *peerConn, c net.Conn, frames []*[]byte) {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	var err error
	if res := pc.resFrame; res != nil {
		// The tail means something only on the connection its head went
		// to; after a drop the frame is lost like any other.
		if c != nil && c == pc.resConn {
			tail := pc.residual
			err = ep.flush(c, []*[]byte{&tail})
		}
		pc.residual, pc.resFrame, pc.resConn = nil, nil, nil
		pc.unsent.Add(-1)
		putFrame(res)
	}
	if err == nil && c != nil && len(frames) > 0 {
		err = ep.flush(c, frames)
	}
	if err != nil {
		// Broken or stalled link (the deadline fired): fair loss.
		ep.dropConn(pc, c)
	}
	pc.unsent.Add(-int64(len(frames)))
}

// dial attempts the outgoing connection for pc, returning nil on failure
// (the drained frames are then dropped — fair loss).
func (ep *Endpoint) dial(pc *peerConn) net.Conn {
	ep.mu.Lock()
	addr, ok := ep.cfg.Peers[pc.peer]
	ep.mu.Unlock()
	if !ok {
		return nil
	}
	d := net.Dialer{Timeout: ep.cfg.DialTimeout}
	c, err := d.DialContext(ep.dialCtx, "tcp", addr)
	if err != nil {
		return nil
	}
	pc.setConn(c)
	return c
}

func (ep *Endpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		ep.accepted[c] = true
		ep.mu.Unlock()
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.readLoop(c)
		}()
	}
}

// readLoop decodes frames from one incoming connection until it breaks and
// hands each envelope over on this goroutine. Frames are decoded inside the
// read buffer: msg.Decode copies every variable-length field out of its
// input, so the bytes can be overwritten by the next read at once.
func (ep *Endpoint) readLoop(c net.Conn) {
	defer func() {
		c.Close()
		ep.mu.Lock()
		delete(ep.accepted, c)
		ep.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c, retainedReadBuf)
	for {
		select {
		case <-ep.done:
			return
		default:
		}
		b, held, err := nextFrame(br)
		if err != nil {
			return
		}
		ep.framesRecv.Inc()
		ep.bytesRecv.Add(uint64(len(b)) + 4)
		env, err := msg.Decode(b)
		_, _ = br.Discard(held) // cannot fail: held bytes are buffered; b is dead from here
		if err != nil {
			continue // corrupted frame: drop, keep the stream
		}
		if fn := ep.receiver.Load(); fn != nil {
			(*fn)(env)
		} else {
			ep.mbox.Put(env)
		}
	}
}

// nextFrame returns the body of the next length-prefixed frame on br. A frame
// that fits the read buffer is returned in place: held is the number of bytes
// the caller must Discard once it is done with b. A larger frame gets a
// one-shot allocation (held is 0) and the retained buffer stays small. An
// error means the stream is broken or out of step.
func nextFrame(br *bufio.Reader) (b []byte, held int, err error) {
	hdr, err := br.Peek(4)
	if err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > maxFrame {
		return nil, 0, fmt.Errorf("tcptransport: frame length %d out of range", n)
	}
	_, _ = br.Discard(4) // cannot fail: just peeked
	if n <= br.Size() {
		b, err = br.Peek(n)
		return b, n, err
	}
	b = make([]byte, n)
	_, err = io.ReadFull(br, b)
	return b, 0, err
}

// Stats is a point-in-time snapshot of an endpoint's wire counters.
type Stats struct {
	FramesSent uint64 // frames handed to the kernel
	BytesSent  uint64 // bytes handed to the kernel (prefix included)
	FramesRecv uint64 // frames read off incoming connections
	BytesRecv  uint64 // bytes read off incoming connections (prefix included)
	// WritevCalls counts every kernel write that moved bytes: one vectored
	// write per writer drain, and each inline write, which is one frame.
	WritevCalls  uint64
	InlineWrites uint64 // frames Send wrote whole on its own goroutine (each also one of WritevCalls)
	Coalesced    uint64 // frames copied through a coalescing buffer (0 on the writev path)
	QueueDrops   uint64 // frames dropped because a peer queue was full
	ConnDrops    uint64 // connections dropped on write error or expired deadline
	Queued       int64  // frames currently queued across all peers
}

// Stats snapshots the endpoint's wire counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		FramesSent:   ep.framesSent.Load(),
		BytesSent:    ep.bytesSent.Load(),
		FramesRecv:   ep.framesRecv.Load(),
		BytesRecv:    ep.bytesRecv.Load(),
		WritevCalls:  ep.writevCalls.Load(),
		InlineWrites: ep.inline.Load(),
		Coalesced:    ep.coalesced.Load(),
		QueueDrops:   ep.queueDrops.Load(),
		ConnDrops:    ep.connDrops.Load(),
		Queued:       ep.queued.Load(),
	}
}

// FramesPerWritev returns the mean frames one kernel write covered — the
// vectored-write amortization factor (1.0 means every frame paid its own
// syscall, as each inline write does).
func (s Stats) FramesPerWritev() float64 {
	if s.WritevCalls == 0 {
		return 0
	}
	return float64(s.FramesSent) / float64(s.WritevCalls)
}

// String renders the snapshot on one line.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d/%dB recv=%d/%dB writev=%d (%.1f frames/call) inline=%d coalesced=%d qdrop=%d cdrop=%d queued=%d",
		s.FramesSent, s.BytesSent, s.FramesRecv, s.BytesRecv,
		s.WritevCalls, s.FramesPerWritev(), s.InlineWrites, s.Coalesced, s.QueueDrops, s.ConnDrops, s.Queued)
}

// Vectored reports whether this binary's flush path is the scatter-gather
// writev implementation (false under -tags etx_nowritev); benchmarks gate
// their zero-copy assertions on it.
func Vectored() bool { return vectoredWrites }

// WireStats renders the current wire counters for liveness diagnostics;
// core.DebugTry folds it into its dump through an interface assertion, so
// the protocol packages need no dependency on this one.
func (ep *Endpoint) WireStats() string { return ep.Stats().String() }

// ParsePeers parses an address book of the form "1=host:port,2=host:port"
// for the given role (cmd flag support).
func ParsePeers(role id.Role, spec string) (map[id.NodeID]string, error) {
	out := make(map[id.NodeID]string)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		if part == "" {
			continue
		}
		var idx int
		var addr string
		if n, err := fmt.Sscanf(part, "%d=%s", &idx, &addr); n != 2 || err != nil {
			return nil, fmt.Errorf("tcptransport: malformed peer %q (want index=host:port)", part)
		}
		out[id.NodeID{Role: role, Index: idx}] = addr
	}
	return out, nil
}

// SortedPeers returns the node ids of an address book ordered by (role,
// index) — the deterministic membership order every process must agree on
// (AppServers[0] is the default primary and round-1 consensus coordinator).
func SortedPeers(book map[id.NodeID]string) []id.NodeID {
	out := make([]id.NodeID, 0, len(book))
	for k := range book {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Merge combines address books.
func Merge(books ...map[id.NodeID]string) map[id.NodeID]string {
	out := make(map[id.NodeID]string)
	for _, b := range books {
		for k, v := range b {
			out[k] = v
		}
	}
	return out
}

// Compile-time interface check.
var _ transport.Endpoint = (*Endpoint)(nil)

package transport

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
)

// LatencyFunc computes the one-way delivery latency for a message. It lets
// the benchmark harness inject the paper's calibrated per-link costs (e.g.
// client<->appserver RPC ≈ 2.5 ms one way, appserver<->appserver ≈ 2.2 ms).
type LatencyFunc func(from, to id.NodeID, p msg.Payload) time.Duration

// Sniffer observes every send attempt; the trace package uses it to count the
// communication steps of Figures 1 and 7.
type Sniffer func(ev SniffEvent)

// SniffEvent describes one send attempt on the in-memory network.
type SniffEvent struct {
	Time    time.Time
	From    id.NodeID
	To      id.NodeID
	Payload msg.Payload
	Dropped bool // true if the fault model discarded the message at send time
}

// Options configures a MemNetwork. The zero value gives a perfect network
// with zero configured latency.
type Options struct {
	// DefaultLatency is the one-way delivery latency when Latency is nil.
	DefaultLatency time.Duration
	// Jitter adds a uniform random [0, Jitter) to every delivery.
	Jitter time.Duration
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// Latency, if set, overrides DefaultLatency per message.
	Latency LatencyFunc
	// Seed seeds the fault model's RNG; 0 means a fixed default seed so runs
	// are reproducible unless explicitly varied.
	Seed int64
}

// MemNetwork is an in-process Network with configurable latency and fault
// injection. It models the paper's asynchronous message-passing system:
// messages can be delayed, lost (when configured), and duplicated; crashed
// nodes neither send nor receive; a node re-attaching after a crash starts
// with an empty inbox (volatile state is lost), and messages that were in
// flight to it when it crashed are discarded.
//
// A single scheduler goroutine drains a time-ordered heap of pending
// deliveries, so in the absence of jitter each link is FIFO.
type MemNetwork struct {
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[id.NodeID]*memEndpoint
	down     map[id.NodeID]bool
	epoch    map[id.NodeID]uint64 // bumped on Crash; stale deliveries are dropped
	blocked  map[linkKey]bool
	pending  deliveryHeap
	seq      uint64 // tiebreak for equal delivery times: preserves send order
	sniffers []Sniffer
	closed   bool

	wake chan struct{}
	done chan struct{}
	idle *sync.Cond // broadcast when the pending heap empties
}

type linkKey struct{ from, to id.NodeID }

type delivery struct {
	at    time.Time
	seq   uint64
	epoch uint64 // destination epoch at send time
	env   msg.Envelope
}

type deliveryHeap []delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(delivery)) }
func (h *deliveryHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// NewMemNetwork creates an in-memory network and starts its scheduler.
func NewMemNetwork(opts Options) *MemNetwork {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	n := &MemNetwork{
		opts:    opts,
		rng:     rand.New(rand.NewSource(seed)),
		nodes:   make(map[id.NodeID]*memEndpoint),
		down:    make(map[id.NodeID]bool),
		epoch:   make(map[id.NodeID]uint64),
		blocked: make(map[linkKey]bool),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	n.idle = sync.NewCond(&n.mu)
	go n.scheduler()
	return n
}

// scheduler delivers pending messages in (time, send-order) order.
func (n *MemNetwork) scheduler() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.mu.Lock()
		now := time.Now()
		var due []delivery
		for len(n.pending) > 0 && !n.pending[0].at.After(now) {
			due = append(due, heap.Pop(&n.pending).(delivery))
		}
		var wait time.Duration = time.Hour
		if len(n.pending) > 0 {
			wait = time.Until(n.pending[0].at)
			if wait < 0 {
				wait = 0
			}
		} else if len(due) == 0 {
			n.idle.Broadcast()
		}
		n.mu.Unlock()

		for _, d := range due {
			n.deliver(d)
		}
		if len(due) > 0 {
			continue // re-check immediately; more may be due
		}

		// Short waits are yield-polled for delivery-time precision (the
		// calibrated cost model depends on it; time.Sleep granularity on
		// coarse-timer kernels is ~1ms). The poll watches the wake channel
		// so a newly sent message with a nearer deadline is picked up
		// immediately.
		if wait > 0 && wait < 3*time.Millisecond {
			target := time.Now().Add(wait)
			for time.Now().Before(target) {
				select {
				case <-n.wake:
					target = time.Now() // re-evaluate the heap now
				default:
					runtime.Gosched()
				}
			}
			continue
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-n.wake:
		case <-timer.C:
		case <-n.done:
			return
		}
	}
}

func (n *MemNetwork) wakeup() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Attach implements Network.
func (n *MemNetwork) Attach(node id.NodeID) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if old, ok := n.nodes[node]; ok {
		old.shutdown()
	}
	ep := newMemEndpoint(n, node)
	n.nodes[node] = ep
	delete(n.down, node)
	return ep, nil
}

// Crash marks node down: its endpoint closes, messages in flight to it are
// discarded, and sends from it fail. Call Attach to bring the node back with
// a fresh (empty) endpoint.
func (n *MemNetwork) Crash(node id.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[node] = true
	n.epoch[node]++
	if ep, ok := n.nodes[node]; ok {
		ep.shutdown()
		delete(n.nodes, node)
	}
}

// Down reports whether node is currently crashed.
func (n *MemNetwork) Down(node id.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[node]
}

// SetBlocked blocks or unblocks the directed link from->to (partition
// injection). Blocked links silently drop messages, like the paper's link
// failures before they are "eventually repaired".
func (n *MemNetwork) SetBlocked(from, to id.NodeID, blocked bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if blocked {
		n.blocked[linkKey{from, to}] = true
	} else {
		delete(n.blocked, linkKey{from, to})
	}
}

// Partition bidirectionally blocks every link between the two groups.
func (n *MemNetwork) Partition(a, b []id.NodeID) {
	for _, x := range a {
		for _, y := range b {
			n.SetBlocked(x, y, true)
			n.SetBlocked(y, x, true)
		}
	}
}

// Heal removes every blocked link.
func (n *MemNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
}

// AddSniffer registers a send observer. Sniffers run synchronously on the
// sender's goroutine; they must be fast and must not call back into the
// network.
func (n *MemNetwork) AddSniffer(s Sniffer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sniffers = append(n.sniffers, s)
}

// InFlightFrom counts scheduler-pending deliveries on the directed link
// from->to that will still be delivered (the destination is up and has not
// re-attached since they were sent). The replication layer's promotion drain
// uses it: once the suspected primary is down, its count is monotonically
// non-increasing, so a backup can wait for the primary's in-flight stream
// tail deterministically instead of guessing with a quiet period.
func (n *MemNetwork) InFlightFrom(from, to id.NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[to] {
		return 0
	}
	count := 0
	for _, d := range n.pending {
		if d.env.From == from && d.env.To == to && d.epoch == n.epoch[to] {
			count++
		}
	}
	return count
}

// Quiesce blocks until no deliveries are pending (useful in tests that want
// the network drained before asserting).
func (n *MemNetwork) Quiesce() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.pending) > 0 && !n.closed {
		//etxlint:allow lockheld — sync.Cond.Wait releases n.mu while parked; this is the canonical condition-wait shape
		n.idle.Wait()
	}
}

// Close shuts the network down, closing all endpoints and discarding pending
// deliveries.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, ep := range n.nodes {
		ep.shutdown()
	}
	n.nodes = make(map[id.NodeID]*memEndpoint)
	n.pending = nil
	n.idle.Broadcast()
	n.mu.Unlock()
	close(n.done)
}

// send applies the fault model and schedules delivery.
func (n *MemNetwork) send(env msg.Envelope) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.down[env.From] {
		n.mu.Unlock()
		return ErrClosed
	}
	drop := n.blocked[linkKey{env.From, env.To}] ||
		(n.opts.LossProb > 0 && n.rng.Float64() < n.opts.LossProb)
	dup := !drop && n.opts.DupProb > 0 && n.rng.Float64() < n.opts.DupProb

	for _, s := range n.sniffers {
		s(SniffEvent{Time: time.Now(), From: env.From, To: env.To, Payload: env.Payload, Dropped: drop})
	}
	if drop {
		n.mu.Unlock()
		return nil
	}

	copies := 1
	if dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		lat := n.opts.DefaultLatency
		if n.opts.Latency != nil {
			lat = n.opts.Latency(env.From, env.To, env.Payload)
		}
		if n.opts.Jitter > 0 {
			lat += time.Duration(n.rng.Int63n(int64(n.opts.Jitter)))
		}
		n.seq++
		heap.Push(&n.pending, delivery{
			at:    time.Now().Add(lat),
			seq:   n.seq,
			epoch: n.epoch[env.To],
			env:   env,
		})
	}
	n.mu.Unlock()
	n.wakeup()
	return nil
}

// deliver hands the message to the destination endpoint if the node is up and
// has not crashed since the message was sent.
func (n *MemNetwork) deliver(d delivery) {
	n.mu.Lock()
	ep, ok := n.nodes[d.env.To]
	stale := n.down[d.env.To] || n.epoch[d.env.To] != d.epoch
	n.mu.Unlock()
	if !ok || stale {
		return
	}
	ep.mbox.Put(d.env)
}

// memEndpoint is the in-memory Endpoint.
type memEndpoint struct {
	net  *MemNetwork
	node id.NodeID

	// mbox never drops: a slow consumer spills instead of causing
	// sender-side loss the fault model did not ask for.
	mbox *Mailbox

	mu     sync.Mutex
	closed bool
}

func newMemEndpoint(n *MemNetwork, node id.NodeID) *memEndpoint {
	return &memEndpoint{net: n, node: node, mbox: NewMailbox()}
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() id.NodeID { return ep.node }

// Send implements Endpoint.
func (ep *memEndpoint) Send(env msg.Envelope) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return fmt.Errorf("%w (%s)", ErrClosed, ep.node)
	}
	ep.mu.Unlock()
	env.From = ep.node
	return ep.net.send(env)
}

// Recv implements Endpoint.
func (ep *memEndpoint) Recv() <-chan msg.Envelope { return ep.mbox.Chan() }

// Pending counts messages delivered to this endpoint but not yet read from
// Recv. It implements PendingCounter; together with InFlightFrom it lets the
// replication layer's promotion drain prove the mailbox empty.
func (ep *memEndpoint) Pending() int { return ep.mbox.Pending() }

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.net.mu.Lock()
	if cur, ok := ep.net.nodes[ep.node]; ok && cur == ep {
		delete(ep.net.nodes, ep.node)
	}
	ep.net.mu.Unlock()
	ep.shutdown()
	return nil
}

// shutdown closes the endpoint's channels. Safe to call multiple times and
// with or without net.mu held.
func (ep *memEndpoint) shutdown() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.closed = true
	ep.mbox.Close()
}

// Compile-time interface checks.
var (
	_ Network  = (*MemNetwork)(nil)
	_ Endpoint = (*memEndpoint)(nil)
)

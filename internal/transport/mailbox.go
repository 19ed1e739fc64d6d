package transport

import (
	"sync"

	"etx/internal/msg"
	"etx/internal/queue"
)

// mailboxDepth is the Recv channel's buffer: deep enough that a consumer
// which keeps up on average absorbs a whole coalesced read (a writev drain
// is at most 64 frames) without spilling.
const mailboxDepth = 64

// Mailbox is the receive side every endpoint shares: producers Put, one
// consumer ranges over Chan. A Put hands the envelope straight to the
// channel — one hand-off between the goroutine that received the message
// and the one that serves it — and only while the channel is full does it
// spill to an unbounded queue that a short-lived goroutine drains back into
// the channel. Producers therefore never block and never drop (the contract
// of Endpoint.Send's receiving half), and envelopes Put by one goroutine
// leave Chan in the order they were Put.
type Mailbox struct {
	ch   chan msg.Envelope
	done chan struct{}

	mu       sync.Mutex
	spill    *queue.Queue[msg.Envelope] // guarded by mu; non-empty only while spilling
	spilling bool                       // guarded by mu — drain is running; Puts must queue behind it
	inHand   bool                       // guarded by mu — drain holds an envelope popped from spill, not yet in ch
	closed   bool                       // guarded by mu
	wg       sync.WaitGroup             // the drain goroutine
}

// NewMailbox returns an open, empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{
		ch:    make(chan msg.Envelope, mailboxDepth),
		done:  make(chan struct{}),
		spill: queue.New[msg.Envelope](),
	}
}

// Chan is the consumer's end; it is closed by Close.
func (m *Mailbox) Chan() <-chan msg.Envelope { return m.ch }

// Put delivers env without blocking. It reports false once the mailbox is
// closed (the envelope is discarded, as a crashed node's mail is).
func (m *Mailbox) Put(env msg.Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if !m.spilling {
		select {
		case m.ch <- env:
			return true
		default:
		}
		m.spilling = true
		m.wg.Add(1)
		go m.drain()
	}
	m.spill.Push(env)
	return true
}

// drain moves the spill back into the channel, in order, and exits once it
// is empty; Put starts it again on the next overflow.
func (m *Mailbox) drain() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		env, ok := m.spill.Pop()
		m.inHand, m.spilling = ok, ok
		m.mu.Unlock()
		if !ok {
			return
		}
		select {
		case m.ch <- env:
		case <-m.done:
			return
		}
	}
}

// Pending counts envelopes Put but not yet read from Chan. An envelope on
// its way from the spill to the channel is counted (for an instant, twice):
// a message is never invisible to a caller waiting for the mailbox to empty.
func (m *Mailbox) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.spill.Len() + len(m.ch)
	if m.inHand {
		n++
	}
	return n
}

// Close closes Chan. Envelopes already in the channel's buffer can still be
// read; spilled ones are discarded. Safe to call more than once and
// concurrently with Put.
func (m *Mailbox) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	close(m.done)
	m.mu.Unlock()
	// No Put can send any more (closed is set under the lock Put sends
	// under); once drain has gone nobody can, and the channel may close.
	m.wg.Wait()
	close(m.ch)
}

package transport

import (
	"sync"
	"testing"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
)

func numbered(from id.NodeID, seq uint64) msg.Envelope {
	return msg.Envelope{From: from, Payload: msg.Heartbeat{Seq: seq}}
}

// A consumer that is not reading makes Put spill, never block or drop; what
// spilled comes out after what went straight in, in the order it was Put.
func TestMailboxSpillKeepsOrderAndCount(t *testing.T) {
	const n = 10 * mailboxDepth
	m := NewMailbox()
	defer m.Close()
	for i := uint64(0); i < n; i++ {
		if !m.Put(numbered(id.AppServer(1), i)) {
			t.Fatalf("Put %d refused on an open mailbox", i)
		}
	}
	if got := m.Pending(); got != n {
		t.Fatalf("Pending = %d with nothing read, want %d", got, n)
	}
	if got := len(m.Chan()); got != mailboxDepth {
		t.Fatalf("channel holds %d, want it full (%d) before anything spills", got, mailboxDepth)
	}
	for i := uint64(0); i < n; i++ {
		select {
		case env := <-m.Chan():
			if got := env.Payload.(msg.Heartbeat).Seq; got != i {
				t.Fatalf("read %d in position %d", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled after %d of %d", i, n)
		}
	}
	// The drain goroutine lets go of its count a moment after its last send.
	for deadline := time.Now().Add(5 * time.Second); m.Pending() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Pending = %d with everything read", m.Pending())
		}
	}
	// Drained: the next Put goes straight to the channel again.
	m.Put(numbered(id.AppServer(1), n))
	if got := len(m.Chan()); got != 1 {
		t.Fatalf("channel holds %d after a Put into a drained mailbox, want 1", got)
	}
}

// Many producers, a consumer slower than they are, and Close landing in the
// middle: every producer's envelopes come out in its own order, nothing is
// sent on the closed channel, and Put reports the closure (run under -race).
func TestMailboxManyProducersAndCloseRace(t *testing.T) {
	const producers = 8
	m := NewMailbox()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		from := id.Client(p + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); m.Put(numbered(from, i)); i++ {
			}
		}()
	}
	next := make(map[id.NodeID]uint64)
	for read := 0; read < 50*mailboxDepth; read++ {
		env := <-m.Chan()
		if got := env.Payload.(msg.Heartbeat).Seq; got != next[env.From] {
			t.Fatalf("%s: read %d, want %d", env.From, got, next[env.From])
		}
		next[env.From]++
	}
	m.Close()
	m.Close() // idempotent
	wg.Wait() // every producer saw Put fail
	for env := range m.Chan() {
		if got := env.Payload.(msg.Heartbeat).Seq; got != next[env.From] {
			t.Fatalf("%s: read %d after Close, want %d", env.From, got, next[env.From])
		}
		next[env.From]++
	}
}

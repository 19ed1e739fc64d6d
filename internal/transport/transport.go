// Package transport abstracts the message-passing network of the paper's
// system model (Section 2): a finite set of processes exchanging uniquely
// identified messages, where processes may crash and (for database servers)
// recover.
//
// Two implementations exist: the in-memory network in this package, which
// supports calibrated per-link latency, loss, duplication, partitions and
// crash isolation (the substrate for all tests and for the Figure-8 cost
// model), and a TCP implementation in the tcptransport subpackage for real
// multi-process deployment. Both, and the reliable channels layered on them
// (internal/rchan), keep received envelopes in this package's Mailbox.
package transport

import (
	"errors"

	"etx/internal/id"
	"etx/internal/msg"
)

// Endpoint is one process's attachment to the network.
//
// Send is asynchronous and never blocks on the destination; delivery follows
// the network's fault model. Recv yields incoming envelopes; the channel is
// closed when the endpoint is closed or its node crashes.
type Endpoint interface {
	// ID returns the node this endpoint belongs to.
	ID() id.NodeID
	// Send enqueues env for delivery. env.From is forced to this endpoint's
	// node. It returns an error only if the endpoint is closed.
	Send(env msg.Envelope) error
	// Recv returns the stream of delivered envelopes.
	Recv() <-chan msg.Envelope
	// Close detaches the endpoint; subsequent Sends fail and Recv is closed.
	Close() error
}

// PendingCounter is implemented by endpoints that can report how many
// delivered messages are waiting unread (the in-memory endpoint does). The
// replication layer's promotion drain asserts on it when available; endpoints
// that cannot know (e.g. TCP) simply don't implement it and the drain falls
// back to a quiet period.
type PendingCounter interface {
	// Pending counts messages delivered but not yet read from Recv.
	Pending() int
}

// DirectReceiver is implemented by endpoints that can hand each delivery to
// a function on the goroutine that took it off the network, sparing a layer
// stacked on the endpoint (the reliable channels) a goroutine hand-off per
// message. The TCP endpoint implements it; the in-memory one, whose single
// scheduler goroutine must not run a consumer's code, does not.
type DirectReceiver interface {
	// SetReceiver routes every later delivery to fn in place of Recv. fn
	// runs on the endpoint's reader goroutines — several at once — and must
	// not block. Deliveries made before the call stay readable from Recv,
	// which still closes when the endpoint does.
	SetReceiver(fn func(msg.Envelope))
}

// Network hands out endpoints for nodes.
type Network interface {
	// Attach creates (or re-creates, after a crash) the endpoint of node.
	// Re-attaching an alive node replaces its previous endpoint; the old one
	// is closed. The fresh endpoint starts with an empty inbox, modelling the
	// loss of volatile state across a crash.
	Attach(node id.NodeID) (Endpoint, error)
}

// Errors returned by endpoints.
var (
	// ErrClosed reports a send on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
)

// Broadcast sends the payload from ep to every node in dests. Failed sends
// (closed endpoint) abort with the error; network-level loss is silent by
// design, as in the paper's model.
func Broadcast(ep Endpoint, dests []id.NodeID, p msg.Payload) error {
	for _, d := range dests {
		if err := ep.Send(msg.Envelope{From: ep.ID(), To: d, Payload: p}); err != nil {
			return err
		}
	}
	return nil
}

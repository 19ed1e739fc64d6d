// Package trace counts the communication of protocol runs: which message
// kinds crossed which tier boundaries and in how many sequential bursts.
// It regenerates the message-pattern content of the paper's Figure 1
// (protocol executions) and Figure 7 (communication steps of the four
// compared protocols).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// Collector records send events from a network sniffer.
type Collector struct {
	mu     sync.Mutex
	events []transport.SniffEvent
	filter func(transport.SniffEvent) bool
}

// New creates a collector and attaches it to the network. The optional
// filter limits which events are recorded (nil records protocol messages,
// skipping heartbeats; consensus decisions are kept).
func New(net *transport.MemNetwork, filter func(transport.SniffEvent) bool) *Collector {
	c := &Collector{filter: filter}
	net.AddSniffer(func(ev transport.SniffEvent) {
		if ev.Dropped {
			return
		}
		if c.filter != nil && !c.filter(ev) {
			return
		}
		c.mu.Lock()
		c.events = append(c.events, ev)
		c.mu.Unlock()
	})
	return c
}

// ProtocolOnly is a filter keeping protocol traffic and dropping the
// periodic background noise (heartbeats).
func ProtocolOnly(ev transport.SniffEvent) bool {
	return ev.Payload.Kind() != msg.KindHeartbeat
}

// Reset clears recorded events (call between experiment phases).
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// snapshot returns a copy of the recorded events.
func (c *Collector) snapshot() []transport.SniffEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]transport.SniffEvent, len(c.events))
	copy(out, c.events)
	return out
}

// Events returns a copy of the recorded events in timeline order (for
// analyses beyond counts, e.g. per-register sender sets).
func (c *Collector) Events() []transport.SniffEvent { return c.snapshot() }

// Counts returns the number of sent messages per kind.
func (c *Collector) Counts() map[msg.Kind]int {
	out := make(map[msg.Kind]int)
	for _, ev := range c.snapshot() {
		out[ev.Payload.Kind()]++
	}
	return out
}

// Total returns the number of recorded messages, optionally restricted to
// the given kinds.
func (c *Collector) Total(kinds ...msg.Kind) int {
	if len(kinds) == 0 {
		return len(c.snapshot())
	}
	want := make(map[msg.Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	n := 0
	for _, ev := range c.snapshot() {
		if want[ev.Payload.Kind()] {
			n++
		}
	}
	return n
}

// Step is one burst of the protocol timeline: consecutive messages of the
// same kind crossing the same tier boundary, collapsed — which is exactly
// what one arrow group in the paper's diagrams depicts.
type Step struct {
	Kind  msg.Kind
	From  id.Role
	To    id.Role
	Count int
}

// String renders a step like "Prepare appserver->dbserver x3".
func (s Step) String() string {
	return fmt.Sprintf("%s %s->%s x%d", s.Kind, s.From, s.To, s.Count)
}

// Steps collapses the recorded timeline into bursts. In a failure-free run
// this reproduces the arrow groups of Figures 1 and 7 (e.g. for the
// replicated protocol: Request, Propose(regA), Ack, Exec..., Prepare, Vote,
// Propose(regD), Ack, Decide, AckDecide, Result).
func (c *Collector) Steps() []Step {
	var steps []Step
	for _, ev := range c.snapshot() {
		k := ev.Payload.Kind()
		if n := len(steps); n > 0 &&
			steps[n-1].Kind == k &&
			steps[n-1].From == ev.From.Role &&
			steps[n-1].To == ev.To.Role {
			steps[n-1].Count++
			continue
		}
		steps = append(steps, Step{Kind: k, From: ev.From.Role, To: ev.To.Role, Count: 1})
	}
	return steps
}

// CriticalSteps returns the number of collapsed bursts — the paper's
// "communication steps" for a failure-free run.
func (c *Collector) CriticalSteps() int { return len(c.Steps()) }

// FormatCounts renders per-kind counts sorted by kind for stable output.
func FormatCounts(counts map[msg.Kind]int) string {
	kinds := make([]msg.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s:%d", k, counts[k])
	}
	return b.String()
}

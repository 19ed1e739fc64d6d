// Package latcost is the calibrated component cost model behind the
// reproduction of the paper's Figure 8. The paper measured its protocols on
// HP C180 workstations, Orbix RPC and Oracle 8.0.3; none of that hardware or
// software is available, so — as README.md ("Benchmarks", the f8 experiment)
// says — the model injects the paper's measured component costs into the
// simulated substrate:
//
//	component              paper measurement           injected as
//	-------------------------------------------------------------------------
//	Orbix RPC round trip   "about 3-5 ms"              per-link one-way latency
//	SQL manipulation       ≈187 ms (baseline col.)     OpSleep work at the db
//	db prepare/commit      ≈19/18.6 ms                 forced-WAL latency at db
//	forced coordinator log 12.5/12.7 ms (2PC col.)     forced write at app server
//	client start/end       3.4/3.4 ms                  client-side marshalling sleep
//
// Absolute numbers reproduce only the *shape* (who wins, by what factor);
// the Scale knob shrinks everything proportionally so a full Figure-8 run
// takes seconds instead of minutes while leaving ratios untouched.
package latcost

import (
	"sync"
	"time"

	"etx/internal/core"
	"etx/internal/id"
	"etx/internal/metrics"
	"etx/internal/msg"
	"etx/internal/transport"
)

// Model holds the injected component costs. All durations are already
// scaled.
type Model struct {
	// Scale records the multiplier the model was built with.
	Scale float64

	// One-way network latencies per tier pair.
	ClientApp time.Duration // client <-> application server
	AppApp    time.Duration // application server <-> application server
	AppDB     time.Duration // application server <-> database server

	// SQLWork is the database-side data-manipulation time per request.
	SQLWork time.Duration
	// DBForce is the database's forced-log (fsync) latency, paid once at
	// prepare and once at commit.
	DBForce time.Duration
	// CoordForce is the 2PC coordinator's forced-log latency (local disk).
	CoordForce time.Duration
	// ClientStart and ClientEnd are the client-side marshalling costs.
	ClientStart time.Duration
	ClientEnd   time.Duration
}

// Paper returns the model calibrated to the paper's Figure 8, scaled by
// scale (1.0 = the paper's real-time costs; 0.02 is a practical default that
// finishes a full table run in seconds).
func Paper(scale float64) Model {
	if scale <= 0 {
		scale = 0.02
	}
	ms := func(v float64) time.Duration {
		return time.Duration(v * scale * float64(time.Millisecond))
	}
	return Model{
		Scale:       scale,
		ClientApp:   ms(2.5), // "other" ≈ 5 ms round trip
		AppApp:      ms(2.2), // regA/regD write ≈ 4.5 ms round trip
		AppDB:       ms(1.5),
		SQLWork:     ms(185),
		DBForce:     ms(15.5), // commit ≈ 18.6 = RTT(3) + force
		CoordForce:  ms(12.5),
		ClientStart: ms(3.4),
		ClientEnd:   ms(3.4),
	}
}

// LatencyFunc returns the per-link one-way latency function for the
// in-memory network. Messages between unknown role pairs travel at the
// client-app latency.
func (m Model) LatencyFunc() transport.LatencyFunc {
	return func(from, to id.NodeID, p msg.Payload) time.Duration {
		switch {
		case from.Role == id.RoleAppServer && to.Role == id.RoleAppServer:
			return m.AppApp
		case (from.Role == id.RoleAppServer && to.Role == id.RoleDBServer) ||
			(from.Role == id.RoleDBServer && to.Role == id.RoleAppServer):
			return m.AppDB
		default:
			return m.ClientApp
		}
	}
}

// Recorder accumulates per-component latency samples reported through
// core.Hooks; one Recorder underlies one column of the Figure-8 table.
type Recorder struct {
	mu    sync.Mutex
	spans map[core.Span]*metrics.Sample
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{spans: make(map[core.Span]*metrics.Sample)}
}

// Observe records one component measurement.
func (r *Recorder) Observe(rid id.ResultID, span core.Span, d time.Duration) {
	r.sample(span).AddDuration(d)
}

// Reset discards every recorded sample (warm-up separation).
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = make(map[core.Span]*metrics.Sample)
	r.mu.Unlock()
}

// Hooks returns instrumentation hooks feeding this recorder.
func (r *Recorder) Hooks() *core.Hooks {
	return &core.Hooks{Span: r.Observe}
}

// Sample returns the sample for one component (created on demand).
func (r *Recorder) sample(span core.Span) *metrics.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.spans[span]
	if !ok {
		s = metrics.NewSample()
		r.spans[span] = s
	}
	return s
}

// Mean returns the mean of one component in milliseconds (0 if never
// observed).
func (r *Recorder) Mean(span core.Span) float64 {
	r.mu.Lock()
	s, ok := r.spans[span]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return s.Mean()
}

// Summary returns the full digest for one component.
func (r *Recorder) Summary(span core.Span) metrics.Summary {
	return r.sample(span).Summarize()
}

package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"etx/internal/id"
	"etx/internal/msg"
	"etx/internal/transport"
)

// ClientConfig parameterizes a client process.
type ClientConfig struct {
	// Self identifies the client.
	Self id.NodeID
	// AppServers is the full middle tier; AppServers[0] is the default
	// primary that receives the initial send (Figure 2).
	AppServers []id.NodeID
	// Endpoint is the client's network attachment.
	Endpoint transport.Endpoint
	// Backoff is the paper's thePeriod: how long to wait for the primary
	// before broadcasting the request to all application servers.
	// Defaults to 150ms.
	Backoff time.Duration
	// Rebroadcast is the interval at which an unanswered broadcast is
	// repeated. The paper's Figure 2 waits forever after the first
	// broadcast, relying on reliable channels; periodic retransmission is
	// the practical equivalent its prose describes. Defaults to Backoff.
	Rebroadcast time.Duration
	// MaxInFlight caps the number of concurrently outstanding requests.
	// When the cap is reached, Issue and IssueAsync block until a slot
	// frees (back-pressure, not an error). 0 means unlimited.
	MaxInFlight int
	// SeqBase is the starting sequence number. Exactly-once state is keyed
	// by (Self, seq) across the whole deployment, so a fresh process
	// reusing a node identity must not reuse sequence numbers of an
	// earlier incarnation or it will be handed the old incarnation's
	// cached results. Long-lived deployments set a per-process base (e.g.
	// a timestamp); the in-process simulation keeps the deterministic 0.
	SeqBase uint64
	// DiscardDeliveries disables the in-memory log of delivered results
	// that backs the Delivered oracle. Production clients set it to avoid
	// unbounded growth; the simulation keeps the log for CheckProperties.
	DiscardDeliveries bool
	// SlowTry, when set, is called (at most once per request) when an Issue
	// carrying a context deadline has burned more than half of its time
	// budget without delivering — whether one try stalled or many quick
	// aborted tries ate the budget; the reported rid is the try awaited at
	// that moment. The client logs its own in-flight table alongside; the
	// hook lets a harness add the servers' view, so a stall leaves evidence
	// instead of a bare "context deadline exceeded".
	SlowTry func(rid id.ResultID, waited time.Duration)
	// Hooks carries optional instrumentation.
	Hooks *Hooks
}

// Client implements the paper's client algorithm (Figure 2), generalized to
// many concurrent requests: each logical request runs its own instance of the
// paper's state machine — send to the primary, back off, broadcast,
// retransmit, step tries on abort — keyed by its sequence number, so any
// number of goroutines can pipeline requests through one client process. The
// paper presents the algorithm for a single outstanding request "without loss
// of generality"; the sequence number in every ResultID is exactly what makes
// the generalization sound, because servers and the oracle already treat
// (client, seq) as the exactly-once unit.
type Client struct {
	cfg ClientConfig

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	sem chan struct{} // nil when MaxInFlight == 0

	mu       sync.Mutex
	stopped  bool             // guarded by mu
	seq      uint64           // guarded by mu
	inflight map[uint64]*call // guarded by mu

	deliveredMu sync.Mutex
	delivered   []Delivery // guarded by deliveredMu
}

// call is the routing slot of one in-flight request: the try currently
// awaited and the channel its decision is delivered on. Both fields are
// guarded by Client.mu and replaced on every try.
type call struct {
	rid id.ResultID
	ch  chan msg.Decision
}

// Delivery records one result the client delivered, for the validity oracle.
type Delivery struct {
	RID    id.ResultID
	Result []byte
	Tries  uint64
	// Participants is the committed try's dlist as reported by the decision:
	// the database servers the oracle must find the commit at.
	Participants []id.NodeID
}

// ErrStopped reports an Issue attempted on (or interrupted by) a stopped
// client.
var ErrStopped = errors.New("core: client stopped")

// NewClient creates a client process and starts its receive loop.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("core: Client needs an Endpoint")
	}
	if len(cfg.AppServers) == 0 {
		return nil, errors.New("core: Client needs at least one application server")
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 150 * time.Millisecond
	}
	if cfg.Rebroadcast <= 0 {
		cfg.Rebroadcast = cfg.Backoff
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		seq:      cfg.SeqBase,
		inflight: make(map[uint64]*call),
	}
	if cfg.MaxInFlight > 0 {
		c.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c, nil
}

// Stop terminates the client's receive loop. In-flight Issues fail with
// ErrStopped.
func (c *Client) Stop() {
	// The flag keeps later Issue calls from racing a wg.Add against
	// wg.Wait: once it is set no request is ever admitted again.
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
}

// InFlight returns the number of currently outstanding requests.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// Delivered returns every result this client has delivered (oracle support).
func (c *Client) Delivered() []Delivery {
	c.deliveredMu.Lock()
	defer c.deliveredMu.Unlock()
	out := make([]Delivery, len(c.delivered))
	copy(out, c.delivered)
	return out
}

func (c *Client) recvLoop() {
	defer c.wg.Done()
	for {
		select {
		case env, ok := <-c.cfg.Endpoint.Recv():
			if !ok {
				return
			}
			res, ok := env.Payload.(msg.Result)
			if !ok {
				continue
			}
			c.mu.Lock()
			// Route by sequence number to the in-flight request, then accept
			// only the result of the try currently awaited; stale
			// retransmissions and duplicates are dropped (at-most-once use
			// of each decision).
			if cl, ok := c.inflight[res.RID.Seq]; ok && cl.rid == res.RID {
				select {
				case cl.ch <- res.Dec:
				default: // duplicate for the same try; first one suffices
				}
			}
			c.mu.Unlock()
		case <-c.ctx.Done():
			return
		}
	}
}

// Future is the handle of one asynchronous Issue. It resolves exactly once.
type Future struct {
	done chan struct{}
	res  []byte
	err  error
}

// Done is closed when the future has resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the future resolves and returns the committed result.
func (f *Future) Result() ([]byte, error) {
	<-f.done
	return f.res, f.err
}

// Wait is Result with a context escape hatch: it returns ctx.Err() if ctx is
// done first. The underlying request keeps running under the context it was
// issued with.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Issue implements the paper's issue() primitive: it blocks until a committed
// result for the request is delivered, ctx is cancelled (the model's client
// crash), or the client is stopped. It is safe to call from any number of
// goroutines; each call pipelines an independent request, on the caller's
// own goroutine.
func (c *Client) Issue(ctx context.Context, request []byte) ([]byte, error) {
	seq, cl, err := c.admit(ctx)
	if err != nil {
		return nil, err
	}
	return c.serve(ctx, seq, cl, request)
}

// IssueAsync submits a request without waiting for its result and returns a
// Future that resolves when the committed result arrives, ctx is cancelled,
// or the client is stopped. Cancelling ctx releases the request's in-flight
// slot; the request then executes at most once.
func (c *Client) IssueAsync(ctx context.Context, request []byte) (*Future, error) {
	seq, cl, err := c.admit(ctx)
	if err != nil {
		return nil, err
	}
	f := &Future{done: make(chan struct{})}
	go func() {
		f.res, f.err = c.serve(ctx, seq, cl, request)
		close(f.done)
	}()
	return f, nil
}

// admit takes an in-flight slot and a sequence number for a new request and
// registers its routing slot. The caller must hand both to serve.
func (c *Client) admit(ctx context.Context) (uint64, *call, error) {
	if err := c.acquire(ctx); err != nil {
		return 0, nil, err
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		c.release()
		return 0, nil, ErrStopped
	}
	c.seq++
	seq := c.seq
	cl := &call{}
	c.inflight[seq] = cl
	// Inside the lock: Stop sets stopped under the same lock before it
	// waits, and the recvLoop keeps the counter above zero until then.
	c.wg.Add(1)
	c.mu.Unlock()
	return seq, cl, nil
}

// serve runs an admitted request to its end, then gives back what admit
// took.
func (c *Client) serve(ctx context.Context, seq uint64, cl *call, request []byte) ([]byte, error) {
	defer c.wg.Done()
	res, err := c.run(ctx, seq, cl, request)
	c.mu.Lock()
	delete(c.inflight, seq)
	c.mu.Unlock()
	c.release()
	return res, err
}

// IssueBatch pipelines all requests concurrently and blocks until every one
// has resolved. Results are positional. The first error encountered is
// returned; positions that failed hold nil.
func (c *Client) IssueBatch(ctx context.Context, requests [][]byte) ([][]byte, error) {
	futures := make([]*Future, len(requests))
	results := make([][]byte, len(requests))
	var firstErr error
	for i, req := range requests {
		f, err := c.IssueAsync(ctx, req)
		if err != nil {
			firstErr = err
			break
		}
		futures[i] = f
	}
	for i, f := range futures {
		if f == nil {
			continue
		}
		res, err := f.Result()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[i] = res
	}
	return results, firstErr
}

// acquire takes an in-flight slot, blocking when MaxInFlight is reached.
func (c *Client) acquire(ctx context.Context) error {
	select {
	case <-c.ctx.Done():
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if c.sem == nil {
		return nil
	}
	select {
	case c.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.ctx.Done():
		return ErrStopped
	}
}

func (c *Client) release() {
	if c.sem != nil {
		<-c.sem
	}
}

// reportSlowTry logs the liveness evidence for a try that has burned half of
// its deadline with no decision — the stalled try plus this client's whole
// in-flight table — then hands off to the SlowTry hook so a harness can add
// the application servers' register and cleaner state.
func (c *Client) reportSlowTry(rid id.ResultID, waited time.Duration) {
	c.mu.Lock()
	table := make([]id.ResultID, 0, len(c.inflight))
	for _, cl := range c.inflight {
		table = append(table, cl.rid)
	}
	c.mu.Unlock()
	sort.Slice(table, func(i, j int) bool { return table[i].Less(table[j]) })
	log.Printf("core: liveness: %s waited %v (half its deadline) with no decision; in-flight tries: %v",
		rid, waited.Round(time.Millisecond), table)
	if c.cfg.SlowTry != nil {
		c.cfg.SlowTry(rid, waited)
	}
}

// run drives one logical request through the paper's per-request state
// machine: try after try until a committed decision is delivered.
func (c *Client) run(ctx context.Context, seq uint64, cl *call, request []byte) ([]byte, error) {
	start := time.Now()
	primary := c.cfg.AppServers[0]
	slow := newSlowWatch(ctx)
	defer slow.stop()
	for try := uint64(1); ; try++ {
		rid := id.ResultID{Client: c.cfg.Self, Seq: seq, Try: try}
		ch := make(chan msg.Decision, 1)
		c.mu.Lock()
		cl.rid, cl.ch = rid, ch
		c.mu.Unlock()

		req := msg.Request{RID: rid, Body: request}
		// Initial send to the default primary only (failure-free fast path).
		if err := c.cfg.Endpoint.Send(msg.Envelope{To: primary, Payload: req}); err != nil {
			return nil, fmt.Errorf("core: issue: %w", err)
		}

		dec, err := c.awaitDecision(ctx, rid, req, ch, slow)
		if err != nil {
			return nil, err
		}
		if dec.Outcome == msg.OutcomeCommit {
			c.cfg.Hooks.span(rid, SpanTotal, time.Since(start))
			if !c.cfg.DiscardDeliveries {
				c.deliveredMu.Lock()
				c.delivered = append(c.delivered, Delivery{
					RID: rid, Result: dec.Result, Tries: try, Participants: dec.Participants,
				})
				c.deliveredMu.Unlock()
			}
			return dec.Result, nil
		}
		// Abort: step to the next try (Figure 2, line 10).
	}
}

// slowWatch arms the liveness diagnostics of one logical request: a single
// timer at half of the context's time budget, shared across the request's
// tries — so a hang that burns the deadline through many quick aborted
// tries fires just like a single stalled try does.
type slowWatch struct {
	timer *time.Timer
	ch    <-chan time.Time
	start time.Time
}

func newSlowWatch(ctx context.Context) *slowWatch {
	w := &slowWatch{start: time.Now()}
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl); budget > 0 {
			w.timer = time.NewTimer(budget / 2)
			w.ch = w.timer.C
		}
	}
	return w
}

func (w *slowWatch) stop() {
	if w.timer != nil {
		w.timer.Stop()
	}
}

// awaitDecision waits for the decision of rid: first a back-off period
// listening for the primary, then a broadcast to all application servers,
// repeated every Rebroadcast interval. A request that consumes half of its
// context deadline without delivering triggers the liveness diagnostics.
func (c *Client) awaitDecision(ctx context.Context, rid id.ResultID, req msg.Request, ch chan msg.Decision, slow *slowWatch) (msg.Decision, error) {
	timer := time.NewTimer(c.cfg.Backoff)
	defer timer.Stop()
	for {
		select {
		case dec := <-ch:
			return dec, nil
		case <-slow.ch:
			slow.ch = nil // once per request
			c.reportSlowTry(rid, time.Since(slow.start))
		case <-timer.C:
			// Back-off expired: send to every application server (Figure 2,
			// line 6), and keep re-sending — the practical form of the
			// paper's reliable-channel retransmission.
			if err := transport.Broadcast(c.cfg.Endpoint, c.cfg.AppServers, req); err != nil {
				return msg.Decision{}, fmt.Errorf("core: issue broadcast: %w", err)
			}
			timer.Reset(c.cfg.Rebroadcast)
		case <-ctx.Done():
			return msg.Decision{}, fmt.Errorf("core: issue %s: %w", rid, ctx.Err())
		case <-c.ctx.Done():
			return msg.Decision{}, ErrStopped
		}
	}
}

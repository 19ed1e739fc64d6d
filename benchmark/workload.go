package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// workload is a traffic description. The deployment and its settings are the
// same for every workload; nothing here is a knob of the program except the
// number of database servers the keys are spread over.
type workload struct {
	name string
	why  string

	shards int
	// depth is the number of closed-loop slots: each sends its next request
	// when the previous one has returned. 0 means an open loop at rate.
	depth int
	// rate is the open loop's mean arrival rate, requests per second, with
	// exponentially distributed gaps.
	rate float64
	// warmup is the number of commits before measurement starts.
	warmup int

	zipf      bool    // accounts drawn Zipf(s=1.2, v=1) instead of uniformly
	transfer  bool    // every request moves 1 between two distinct accounts
	readShare float64 // share of requests that are snapshot reads
}

// workloads are all the benchmark can run. BENCHMARK.json names the ones a
// change is gated on; pipe32_xshard is not among them, README.md says why.
var workloads = []workload{
	{
		name: "seq_1shard", shards: 1, depth: 1, warmup: 500,
		why: "one request at a time: every layer is serial on the critical path and all batching is bypassed (the paper's Figure 8)",
	},
	{
		name: "pipe32_uniform", shards: 1, depth: 32, warmup: 2000,
		why: "32 in flight, uniform keys: CPU-bound throughput; group commit, cohort consensus and writev do the work, locks never wait",
	},
	{
		name: "pipe32_hotkey", shards: 1, depth: 32, warmup: 2000, zipf: true,
		why: "32 in flight, Zipf(1.2) keys: lock wait on the hot accounts, not CPU, bounds throughput and the tail",
	},
	{
		name: "pipe32_xshard", shards: 2, depth: 32, warmup: 2000, transfer: true,
		why: "32 in flight, transfers over 2 shards: about half are two-participant commits, the slower participant sets each round",
	},
	{
		name: "open1k_readmostly", shards: 1, rate: 1000, warmup: 1000, readShare: 0.8,
		why: "open loop, 1000/s Poisson, 80% snapshot reads: consensus does nearly all the work, one or two in flight, timed from due time",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	kindDeposit  = 'd'
	kindRead     = 'r'
	kindTransfer = 't'
)

// request is one generated request. Its wire form is the kind letter
// followed by the account numbers, comma separated: "d17", "r5", "t3,900".
type request struct {
	kind byte
	a, b int
	// gap is the open-loop interval between the previous request's due time
	// and this one's.
	gap time.Duration
}

func (q request) encode() []byte {
	out := strconv.AppendInt([]byte{q.kind}, int64(q.a), 10)
	if q.kind == kindTransfer {
		out = strconv.AppendInt(append(out, ','), int64(q.b), 10)
	}
	return out
}

func parseRequest(body []byte) (request, error) {
	bad := func() (request, error) { return request{}, fmt.Errorf("bad request %q", body) }
	if len(body) < 2 {
		return bad()
	}
	q := request{kind: body[0]}
	first, second, two := strings.Cut(string(body[1:]), ",")
	a, err := strconv.Atoi(first)
	if err != nil || a < 0 || a >= numAccounts {
		return bad()
	}
	q.a = a
	switch q.kind {
	case kindDeposit, kindRead:
		if two {
			return bad()
		}
	case kindTransfer:
		b, err := strconv.Atoi(second)
		if !two || err != nil || b < 0 || b >= numAccounts || b == a {
			return bad()
		}
		q.b = b
	default:
		return bad()
	}
	return q, nil
}

// generator produces the request stream of one workload from one seed: the
// i-th call of next returns the i-th request, whatever the program does.
type generator struct {
	w    workload
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, numAccounts-1)
	}
	return g
}

func (g *generator) account() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(numAccounts)
}

func (g *generator) next() request {
	var q request
	if g.w.rate > 0 {
		q.gap = time.Duration(g.rng.ExpFloat64() / g.w.rate * float64(time.Second))
	}
	switch {
	case g.w.transfer:
		q.kind = kindTransfer
		q.a = g.account()
		q.b = g.rng.Intn(numAccounts - 1)
		if q.b >= q.a {
			q.b++
		}
	case g.w.readShare > 0 && g.rng.Float64() < g.w.readShare:
		q.kind, q.a = kindRead, g.account()
	default:
		q.kind, q.a = kindDeposit, g.account()
	}
	return q
}

package main

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1) // 1..100, ascending
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample has no median and no percentile")
	}
}

func TestPerSecondCountsAndBetterQuarter(t *testing.T) {
	const s = time.Second
	t0, t1 := 10*s, 15*s
	var events []time.Duration
	add := func(second, n int) {
		for i := 0; i < n; i++ {
			events = append(events, t0+time.Duration(second)*s+time.Duration(i)*time.Millisecond)
		}
	}
	add(0, 100)
	add(1, 102)
	add(2, 98)
	add(3, 5) // a stalled second
	add(4, 101)
	events = append(events, t0-1, t1, t1+s) // outside the interval: not counted
	counts := perSecondCounts(events, t0, t1)
	if want := []float64{100, 102, 98, 5, 101}; !slices.Equal(counts, want) {
		t.Fatalf("perSecondCounts = %v, want %v", counts, want)
	}
	// The stalled second must not move either summary.
	if got := betterQuarter(counts, true); got != 101.5 {
		t.Errorf("better quarter of the rates = %v, want 101.5, the mean of the best two of five", got)
	}
	if got := median(counts); got != 100 {
		t.Errorf("median of the rates = %v, want 100", got)
	}
	// Four seconds of eight beside a busy neighbour: the better quarter still
	// reports the undisturbed latency, the median reports neither.
	lat := []float64{4.0, 6.1, 4.2, 5.9, 4.1, 6.0, 4.3, 6.2}
	if got := betterQuarter(lat, false); got != 4.05 {
		t.Errorf("better quarter of the latencies = %v, want 4.05", got)
	}
	if got := median(lat); got != 5.1 {
		t.Errorf("median of the latencies = %v, want 5.1", got)
	}
	if !math.IsNaN(betterQuarter(nil, true)) {
		t.Error("no windows have no better quarter")
	}
}

func TestBreakdownClipsChildrenAndJoinsTries(t *testing.T) {
	const us = time.Microsecond
	sp := func(node, name string, seq, try uint64, start, end time.Duration) span {
		return span{node: node, client: 1, seq: seq, try: try, name: name, start: start, end: end}
	}
	spans := []span{
		// Request 7 committed on its second try; the first ran on another
		// server, started before the root (clipped) and was abandoned.
		sp("client-1", rootSpan, 7, 2, 100*us, 1100*us),
		sp("appserver-2", "log-start", 7, 1, 50*us, 150*us), // 50us inside the root
		sp("appserver-1", "log-start", 7, 2, 300*us, 400*us),
		sp("appserver-1", "SQL", 7, 2, 400*us, 500*us),
		sp("appserver-1", "prepare", 7, 2, 500*us, 800*us),
		sp("appserver-1", "log-outcome", 7, 2, 800*us, 900*us),
		sp("appserver-1", "commit", 7, 2, 950*us, 1200*us), // runs past the root (clipped)
		// Request 8 ended outside the interval; request 9 has no root.
		sp("client-1", rootSpan, 8, 1, 1900*us, 2100*us),
		sp("appserver-1", "SQL", 9, 1, 500*us, 600*us),
	}
	reqs := join(spans, 0, 2000*us)
	if len(reqs) != 1 || reqs[0].root.seq != 7 || len(reqs[0].children) != 6 {
		t.Fatalf("join = %+v, want request 7 alone with the 6 spans of both tries", reqs)
	}
	parts, self := reqs[0].breakdown()
	want := map[string]time.Duration{
		"log-start": 150 * us, "SQL": 100 * us, "prepare": 300 * us, "log-outcome": 100 * us, "commit": 150 * us,
	}
	var sum time.Duration
	for name, d := range want {
		if parts[name] != d {
			t.Errorf("%s credited %v, want %v", name, parts[name], d)
		}
		sum += d
	}
	if self != 1000*us-sum {
		t.Errorf("self time %v, want %v", self, 1000*us-sum)
	}

	// Overlapping children are credited once: the parts never exceed the root.
	overlap := tracedRequest{root: sp("client-1", rootSpan, 1, 1, 0, 100*us), children: []span{
		sp("appserver-1", "prepare", 1, 1, 10*us, 60*us),
		sp("appserver-1", "commit", 1, 1, 40*us, 90*us),
	}}
	parts, self = overlap.breakdown()
	if parts["prepare"] != 50*us || parts["commit"] != 30*us || self != 20*us {
		t.Errorf("overlap: prepare %v commit %v self %v, want 50us 30us 20us", parts["prepare"], parts["commit"], self)
	}

	var total float64
	for _, m := range spanMetrics(reqs) {
		switch m.Name {
		case "core.span_total_ms_mean":
			total -= m.Value
		case "core.span_other_share", "core.tries_per_commit":
		default:
			total += m.Value
		}
	}
	if math.Abs(total) > 1e-9 {
		t.Errorf("span means do not sum to the total: off by %v ms", total)
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	stream := func(w workload, seed int64) ([]byte, time.Duration) {
		g := newGenerator(w, seed)
		var b bytes.Buffer
		var due time.Duration
		for i := 0; i < 5000; i++ {
			q := g.next()
			due += q.gap
			b.Write(q.encode())
			b.WriteByte('\n')
			back, err := parseRequest(q.encode())
			if err != nil || back.kind != q.kind || back.a != q.a || back.b != q.b {
				t.Fatalf("%s: request %q does not parse back: %+v, %v", w.name, q.encode(), back, err)
			}
		}
		return b.Bytes(), due
	}
	for _, w := range workloads {
		a, dueA := stream(w, 42)
		b, dueB := stream(w, 42)
		if !bytes.Equal(a, b) || dueA != dueB {
			t.Errorf("%s: the same seed gave two different request streams or schedules", w.name)
		}
		if c, _ := stream(w, 43); bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same request stream", w.name)
		}
		if w.rate > 0 {
			// 5000 arrivals at 1000/s are due over 5s, give or take 5%.
			if want := 5000 / w.rate; math.Abs(dueA.Seconds()-want) > 0.05*want {
				t.Errorf("%s: 5000 arrivals span %v, want about %vs", w.name, dueA, want)
			}
		}
	}
	hot, _ := findWorkload("pipe32_hotkey")
	g := newGenerator(hot, 1)
	count := 0
	for i := 0; i < 10000; i++ {
		if g.next().a == 0 {
			count++
		}
	}
	if count < 1000 {
		t.Errorf("Zipf(1.2): account 0 drew %d of 10000 requests, want a hot key", count)
	}
}

// oracleFixture is a consistent history: deposits, a read and transfers,
// with the balances the engines would hold after it.
func oracleFixture() ([]sample, []int64) {
	live := make([]int64, numAccounts)
	for i := range live {
		live[i] = seedBalance
	}
	var samples []sample
	deposit := func(a int) {
		live[a]++
		samples = append(samples, sample{req: request{kind: kindDeposit, a: a}, replyOK: true, bal: [2]int64{live[a]}})
	}
	deposit(3)
	deposit(3)
	deposit(5)
	samples = append(samples, sample{req: request{kind: kindRead, a: 3}, replyOK: true, bal: [2]int64{seedBalance + 1}})
	deposit(3)
	return samples, live
}

func TestOracleCatchesOneCorruptedDelta(t *testing.T) {
	samples, live := oracleFixture()
	if err := checkExactlyOnce(samples, live); err != nil {
		t.Fatalf("consistent history rejected: %v", err)
	}
	if err := checkDurable(live, append([]int64(nil), live...)); err != nil {
		t.Fatalf("identical recovery rejected: %v", err)
	}

	corrupt := func(name string, change func(samples []sample, live []int64)) {
		s, l := oracleFixture()
		change(s, l)
		if err := checkExactlyOnce(s, l); err == nil {
			t.Errorf("%s: the oracle accepted it", name)
		}
	}
	corrupt("an acknowledged deposit lost", func(s []sample, l []int64) { l[3]-- })
	corrupt("an acknowledged deposit applied twice", func(s []sample, l []int64) { l[5]++ })
	corrupt("a deposit acknowledged to the wrong account", func(s []sample, l []int64) { s[2].req.a = 6 })
	corrupt("two deposits returning the same balance", func(s []sample, l []int64) { s[1].bal[0] = s[0].bal[0] })
	corrupt("a reply that does not parse", func(s []sample, l []int64) { s[0].replyOK = false })
	corrupt("a read of a balance never held", func(s []sample, l []int64) { s[3].bal[0] = seedBalance + 9 })

	// A failed request may or may not have applied: both ends are accepted,
	// nothing beyond them.
	s, l := oracleFixture()
	s = append(s, sample{req: request{kind: kindDeposit, a: 9}, failed: true})
	if err := checkExactlyOnce(s, l); err != nil {
		t.Errorf("failed deposit not applied: %v", err)
	}
	l[9]++
	if err := checkExactlyOnce(s, l); err != nil {
		t.Errorf("failed deposit applied once: %v", err)
	}
	l[9]++
	if err := checkExactlyOnce(s, l); err == nil {
		t.Error("failed deposit applied twice: the oracle accepted it")
	}

	// Transfers conserve the grand total even when they fail half way.
	s, l = oracleFixture()
	s = append(s, sample{req: request{kind: kindTransfer, a: 1, b: 2}, replyOK: true})
	l[1]--
	l[2]++
	if err := checkExactlyOnce(s, l); err != nil {
		t.Errorf("acknowledged transfer: %v", err)
	}
	l[2]++
	if err := checkExactlyOnce(s, l); err == nil {
		t.Error("transfer that created money: the oracle accepted it")
	}

	recovered := append([]int64(nil), live...)
	recovered[5]--
	if err := checkDurable(live, recovered); err == nil {
		t.Error("a journal that lost an acknowledged deposit: the durability oracle accepted it")
	}
}

// TestSmoke runs every workload for one second, traced and with both
// oracles, so that a change to the program that breaks rig.go fails here.
// It also holds BENCHMARK.json to what the benchmark prints.
func TestSmoke(t *testing.T) {
	began := time.Now()
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	for _, named := range c.Workloads {
		if w, ok := findWorkload(named.Name); !ok {
			t.Errorf("BENCHMARK.json names the workload %q, which the benchmark does not have", named.Name)
		} else if named.Why != w.why {
			t.Errorf("BENCHMARK.json says of %s %q, the benchmark %q", w.name, named.Why, w.why)
		}
	}

	outDir := t.TempDir()
	opts := runOptions{seed: 1, measure: time.Second, setups: 1, outDir: outDir}
	untraced, err := runWorkload(workloads[0], opts)
	if err != nil {
		t.Fatalf("%s: %v", workloads[0].name, err)
	}
	listed := make(map[string]string)
	for _, m := range c.EndToEnd {
		listed[m.Name] = m.Unit
	}
	checkNames(t, "end_to_end", untraced.Metrics, listed)

	probes, err := runProbes(outDir)
	if err != nil {
		t.Fatalf("layer probes: %v", err)
	}
	opts.traced = true
	listed = make(map[string]string)
	for _, m := range c.PerLayer {
		listed[m.Name] = m.Unit
	}
	for _, w := range workloads {
		res, err := runWorkload(w, opts)
		if errors.Is(err, errLate) {
			// The race detector or a busy machine; the deployment worked.
			t.Logf("%s (traced): %v", w.name, err)
			continue
		}
		if err != nil {
			t.Fatalf("%s (traced): %v", w.name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, res.Failed, res.Attempted)
		}
		checkNames(t, "per_layer", append(res.Metrics, probes...), listed)
	}
	// About 13s on two cores; no assertion, a loaded machine must not fail it.
	t.Logf("smoke test took %v", time.Since(began).Round(time.Second))
}

// checkNames requires the metrics a run printed to be exactly the ones
// BENCHMARK.json lists under section, with the same units.
func checkNames(t *testing.T, section string, got []metric, listed map[string]string) {
	t.Helper()
	for _, m := range got {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
		if unit, ok := listed[m.Name]; !ok {
			t.Errorf("the benchmark prints %s, which BENCHMARK.json %s does not list", m.Name, section)
		} else if unit != m.Unit {
			t.Errorf("BENCHMARK.json %s gives %s the unit %q, the benchmark prints %q", section, m.Name, unit, m.Unit)
		}
	}
	if len(got) != len(listed) {
		t.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark prints %d", section, len(listed), len(got))
	}
}

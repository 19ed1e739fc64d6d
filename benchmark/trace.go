package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The names the program gives its spans (core.Span). rootSpan is reported by
// the client, once per committed request; the others by the application
// server that ran the try, one after the other.
const rootSpan = "total"

var childSpans = []struct{ span, metric string }{
	{"log-start", "core.span_log_start_ms_mean"},
	{"SQL", "core.span_sql_ms_mean"},
	{"prepare", "core.span_prepare_ms_mean"},
	{"log-outcome", "core.span_log_outcome_ms_mean"},
	{"commit", "core.span_commit_ms_mean"},
}

// span is one span as reported: it ended when the callback ran and started d
// earlier. Times are offsets from the collector's epoch.
type span struct {
	node       string
	client     int
	seq, try   uint64
	name       string
	start, end time.Duration
}

// collector keeps every span of a run in memory.
type collector struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (c *collector) record(node string, client int, seq, try uint64, name string, d time.Duration) {
	end := time.Since(c.epoch)
	c.mu.Lock()
	c.spans = append(c.spans, span{node, client, seq, try, name, end - d, end})
	c.mu.Unlock()
}

// tracedRequest is one committed request: its root span and the spans of all
// its tries, on whichever application server they ran.
type tracedRequest struct {
	root     span
	children []span
}

// join groups the spans by (client, seq) and returns the requests whose root
// span ended in [t0, t1), in order of completion.
func join(spans []span, t0, t1 time.Duration) []tracedRequest {
	type key struct {
		client int
		seq    uint64
	}
	byReq := make(map[key]*tracedRequest)
	for _, s := range spans {
		if s.name == rootSpan && s.end >= t0 && s.end < t1 {
			byReq[key{s.client, s.seq}] = &tracedRequest{root: s}
		}
	}
	for _, s := range spans {
		if r := byReq[key{s.client, s.seq}]; r != nil && s.name != rootSpan {
			r.children = append(r.children, s)
		}
	}
	out := make([]tracedRequest, 0, len(byReq))
	for _, r := range byReq {
		sort.Slice(r.children, func(i, j int) bool { return r.children[i].start < r.children[j].start })
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root.end < out[j].root.end })
	return out
}

// breakdown splits the root span's duration among its children and itself.
// Each child is credited with the part of the root's interval it covers that
// no earlier child covered, so the credits never overlap; what is left is
// the root's self time: the client-to-server hops, the wait for a compute
// thread and for a terminator, and the delivery of the result.
func (r tracedRequest) breakdown() (byName map[string]time.Duration, self time.Duration) {
	byName = make(map[string]time.Duration)
	covered := r.root.start
	self = r.root.end - r.root.start
	for _, c := range r.children { // ascending start
		from, to := max(c.start, covered), min(c.end, r.root.end)
		if to > from {
			byName[c.name] += to - from
			self -= to - from
			covered = to
		}
	}
	return byName, self
}

// spanMetrics reports the mean of each part over the requests; the parts sum
// to core.span_total_ms_mean by construction.
func spanMetrics(reqs []tracedRequest) []metric {
	sums := make(map[string]time.Duration)
	var total, self time.Duration
	var tries uint64
	for _, r := range reqs {
		parts, own := r.breakdown()
		for name, d := range parts {
			sums[name] += d
		}
		total += r.root.end - r.root.start
		self += own
		tries += r.root.try
	}
	n := float64(len(reqs))
	mean := func(d time.Duration) float64 { return ratio(ms(d), n) }
	var out []metric
	for _, c := range childSpans {
		out = append(out, metric{c.metric, mean(sums[c.span]), "ms", len(reqs)})
	}
	return append(out,
		metric{"core.span_other_ms_mean", mean(self), "ms", len(reqs)},
		metric{"core.span_total_ms_mean", mean(total), "ms", len(reqs)},
		metric{"core.span_other_share", ratio(float64(self), float64(total)), "share", len(reqs)},
		metric{"core.tries_per_commit", ratio(float64(tries), n), "count", len(reqs)},
	)
}

// maxTraceRequests caps the trace file: the metrics use every request of the
// interval, the file holds the first ones, a few megabytes at most.
const maxTraceRequests = 5000

// writeTrace writes the joined requests as JSON; README.md describes the
// format.
func writeTrace(path, workload string, seed int64, reqs []tracedRequest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"us\",\"requests_in_interval\":%d,\"requests\":[", workload, seed, len(reqs))
	reqs = reqs[:min(len(reqs), maxTraceRequests)]
	for i, r := range reqs {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"client\":%d,\"seq\":%d,\"spans\":[", r.root.client, r.root.seq)
		for j, s := range append([]span{r.root}, r.children...) {
			if j > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "{\"name\":%q,\"node\":%q,\"try\":%d,\"start\":%.1f,\"dur\":%.1f}",
				s.name, s.node, s.try, us(s.start), us(s.end-s.start))
		}
		w.WriteString("]}")
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

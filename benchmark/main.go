// Command benchmark is the repository's one canonical benchmark: it builds
// the three-tier deployment in this process over loopback TCP with
// file-backed journals, drives five named workloads through one client
// handle, checks an exactly-once and a durability oracle after every run and
// prints every metric by name. README.md describes the workloads, the
// metrics and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// document is everything one invocation measured; -out writes it and, with
// more than one run, it is the last line of standard output.
type document struct {
	Seed       int64        `json:"seed"`
	Seconds    int          `json:"seconds"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []*runResult `json:"runs"`
}

// contractLine is the last line of standard output of a single run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the request generator: the same seed gives the same request stream")
	name := fs.String("workload", "all", "workload to run; all; or none, for the layer probes alone")
	seconds := fs.Int("seconds", 28, "length of each measured interval, at least 8")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	layers := fs.Bool("layers", true, "with a traced run, also run the isolated layer probes once")
	out := fs.String("out", "", "also write the results to this file, as JSON")
	calibrate := fs.Int("calibrate", 0, "run every workload this many times; write what they showed to -out and the bounds to BENCHMARK.json")
	compare := fs.String("compare", "", "print each end-to-end metric's change against this baseline file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 8 {
		return fmt.Errorf("-seconds %d: a measured interval is at least 8 seconds", *seconds)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	selected := workloads
	if *name == "none" {
		selected = nil
	} else if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("-workload %q: no such workload", *name)
		}
		selected = []workload{w}
	}

	// The deployment's own log lines (suspicions, liveness dumps) would
	// drown the metrics; failures surface through the oracles.
	log.SetOutput(io.Discard)
	// Go 1.24 ignores container CPU quotas, so pin the scheduler explicitly.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	procs := runtime.GOMAXPROCS(0)
	const outDir = "out"
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# GOMAXPROCS=%d seed=%d seconds=%d; 3 app servers, file-backed data servers, one client, loopback TCP under rchan\n", procs, *seed, *seconds)
	fmt.Fprintln(stdout, "# no message delay is injected: latency is loopback syscalls + scheduler + processor time + this machine's fsync")

	doc := &document{Seed: *seed, Seconds: *seconds, GOMAXPROCS: procs}
	if *calibrate > 0 {
		return runCalibrate(stdout, *calibrate, doc, time.Duration(*seconds)*time.Second, outDir, *out)
	}
	opts := runOptions{seed: *seed, measure: time.Duration(*seconds) * time.Second, outDir: outDir}
	var probes []metric
	if *layers && *trace != "0" {
		var err error
		if probes, err = runProbes(outDir); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		if len(selected) == 0 {
			doc.Runs = append(doc.Runs, &runResult{Workload: "probes", Traced: true, Attempted: 1, Metrics: probes})
			printMetrics(stdout, doc.Runs[0])
		}
	}
	for _, w := range selected {
		var untraced *runResult
		if *trace != "1" {
			opts.traced, opts.setups = false, untracedSetups
			res, err := runWorkload(w, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			untraced = res
			doc.Runs = append(doc.Runs, res)
			printMetrics(stdout, res)
		}
		if *trace != "0" {
			opts.traced, opts.setups = true, 1
			res, err := runWorkload(w, opts)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", w.name, err)
			}
			if untraced != nil {
				overhead := 1 - ratio(res.value("trace.commits_per_s"), untraced.value("commits_per_s"))
				res.Metrics = append(res.Metrics, metric{"trace.overhead_share", overhead, "share", 1})
			}
			res.Metrics = append(res.Metrics, probes...)
			doc.Runs = append(doc.Runs, res)
			printMetrics(stdout, res)
		}
	}

	if *compare != "" {
		if err := printComparison(stdout, *compare, doc); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return err
		}
	}
	var last any = doc
	if len(doc.Runs) == 1 {
		r := doc.Runs[0]
		// A run whose oracles failed returned an error above instead.
		line := contractLine{true, r.Attempted, r.Failed, make(map[string]contractValue)}
		for _, m := range r.Metrics {
			line.Metrics[m.Name] = contractValue{m.Value, m.Unit}
		}
		last = line
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func printMetrics(w io.Writer, r *runResult) {
	name := r.Workload
	if r.Traced {
		name += "+trace"
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", name, m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s attempted %d count n=1\n%s failed %d count n=1\n", name, r.Attempted, name, r.Failed)
}

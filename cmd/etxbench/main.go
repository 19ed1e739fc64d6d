// Command etxbench regenerates the tables and figures of the paper's
// evaluation (Frølund & Guerraoui, "Implementing e-Transactions with
// Asynchronous Replication", DSN 2000) on the simulated substrate, plus the
// extension experiments.
//
// Usage:
//
//	etxbench -exp all                # every experiment
//	etxbench -exp f8 -scale 0.05     # the Figure-8 latency table
//	etxbench -exp batching -quick    # one closed-loop sweep, CI-sized
//
// The scenario experiments are f8, f7, f1 (the paper's figures), failover,
// suspicion, woregister, patience, gc and wire (raw TCP framing). The
// closed-loop sweeps — pipeline, scaling, shards, batching, memory — are
// entries of one cell table (internal/bench/sweeps.go) and print one row
// schema; the README's Benchmarks section lists them.
//
// -scale multiplies the paper's calibrated component costs: 1.0 reproduces
// the paper's real-time latencies (a slow run), 0.05 keeps the ratios and
// finishes in seconds. -quick shrinks the extension experiments for CI
// smoke runs and -net lan|wan swaps every sweep cell's memnet substrate for
// a latcost latency profile. A sweep keeps its own scale, request count and
// depths unless -scale, -requests or -inflight is given explicitly. -json
// writes every produced report as machine-readable JSON (keyed by experiment
// name) and -memprofile writes a post-run heap profile for leak hunts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"etx/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etxbench:", err)
		os.Exit(1)
	}
}

func run() error {
	names := "all|f8|f7|f1|failover|suspicion|woregister|patience|gc|wire"
	for _, sw := range bench.Sweeps() {
		names += "|" + sw[0]
	}
	exp := flag.String("exp", "all", "experiment: "+names)
	scale := flag.Float64("scale", 0.05, "cost-model scale (1.0 = the paper's real-time costs)")
	requests := flag.Int("requests", 30, "requests per measured column")
	runs := flag.Int("runs", 5, "runs per failure scenario")
	inflight := flag.Int("inflight", 16, "pipelining depth K of the sweeps")
	quick := flag.Bool("quick", false, "CI smoke mode: smaller scale and request counts for the extension experiments")
	netProfile := flag.String("net", "", "latcost network profile for every sweep cell: lan|wan (default: each sweep's own substrate)")
	jsonPath := flag.String("json", "", "write the reports as JSON to this file (keyed by experiment name)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
	flag.Parse()

	// -scale, -requests, -inflight and -runs default to values tuned for the
	// paper's figures; the sweeps, and the failover scenario in quick mode,
	// honour them only when given explicitly.
	var setScale float64
	var setRequests, setInflight, setRuns int
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			setScale = *scale
		case "requests":
			setRequests = *requests
		case "inflight":
			setInflight = *inflight
		case "runs":
			setRuns = *runs
		}
	})

	type experiment struct {
		name string // the -exp name and the report's key in the JSON document
		run  func() (fmt.Stringer, error)
	}
	experiments := []experiment{
		{"f8", func() (fmt.Stringer, error) {
			out, err := bench.RunFigure8(bench.Figure8Config{Scale: *scale, Requests: *requests})
			if err != nil {
				return nil, err
			}
			paper := bench.PaperFigure8()
			fmt.Println("--- paper's published Figure 8 ---")
			fmt.Print(paper.String())
			fmt.Println()
			return out, nil
		}},
		{"f7", func() (fmt.Stringer, error) { return bench.RunFigure7(*scale) }},
		{"f1", func() (fmt.Stringer, error) { return bench.RunFigure1(*scale) }},
		{"failover", func() (fmt.Stringer, error) {
			cfg := bench.FailoverConfig{Scale: *scale, Runs: *runs, Quick: *quick}
			if *quick {
				cfg.Runs = setRuns
			}
			return bench.RunFailover(cfg)
		}},
		{"suspicion", func() (fmt.Stringer, error) { return bench.RunSuspicion(*scale, *runs) }},
		{"woregister", func() (fmt.Stringer, error) { return bench.RunWORegister(*scale, 3, *requests) }},
		{"patience", func() (fmt.Stringer, error) { return bench.RunPatience(*scale, *runs) }},
		{"gc", func() (fmt.Stringer, error) { return bench.RunGCAblation(5 * *runs * *runs) }},
		{"wire", func() (fmt.Stringer, error) { return bench.RunWire(*quick, setInflight) }},
	}
	for _, sw := range bench.Sweeps() {
		name := sw[0]
		experiments = append(experiments, experiment{name, func() (fmt.Stringer, error) {
			return bench.RunSweep(name, *quick, *netProfile, setScale, setRequests, setInflight)
		}})
	}

	matched := false
	reports := make(map[string]fmt.Stringer)
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		matched = true
		fmt.Printf("=== experiment %s ===\n", e.name)
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(out.String())
		reports[e.name] = out
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return fmt.Errorf("encode reports: %w", err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonPath, err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("create %s: %w", *memProfile, err)
		}
		defer f.Close()
		runtime.GC() // profile live objects, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}
	return nil
}

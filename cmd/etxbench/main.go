// Command etxbench regenerates the tables and figures of the paper's
// evaluation (Frølund & Guerraoui, "Implementing e-Transactions with
// Asynchronous Replication", DSN 2000) on the simulated substrate, plus the
// scenarios its text describes.
//
// Usage:
//
//	etxbench -exp all                # every experiment
//	etxbench -exp f8 -scale 0.05     # the Figure-8 latency table
//	etxbench -exp all -quick         # every experiment, CI-sized
//
// The experiments are f8, f7 and f1 (the paper's figures), failover
// (response time across an application-server crash), suspicion (false
// suspicions: primary-backup against the replicated protocol), patience
// (the client's back-off morphing primary-backup into active replication)
// and gc (the register-retirement ablation). Throughput is not measured
// here: benchmark/ runs the deployment over loopback TCP with a real fsync.
//
// -scale multiplies the paper's calibrated component costs: 1.0 reproduces
// the paper's real-time latencies (a slow run), 0.05 keeps the ratios and
// finishes in seconds. -quick shrinks the failover scenario for CI smoke
// runs, and -memprofile writes a post-run heap profile for leak hunts.
package main

import (
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
	exp := flag.String("exp", "all", "experiment: all|f8|f7|f1|failover|suspicion|patience|gc")
	scale := flag.Float64("scale", 0.05, "cost-model scale (1.0 = the paper's real-time costs)")
	requests := flag.Int("requests", 30, "requests per measured column")
	runs := flag.Int("runs", 5, "runs per failure scenario")
	quick := flag.Bool("quick", false, "CI smoke mode: a smaller failover scenario")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the experiments finish")
	flag.Parse()

	// -runs defaults to a value tuned for the full failover scenario; in
	// quick mode it is honoured only when given explicitly.
	var setRuns int
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "runs" {
			setRuns = *runs
		}
	})

	experiments := []struct {
		name string // the -exp name
		run  func() (fmt.Stringer, error)
	}{
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
		{"patience", func() (fmt.Stringer, error) { return bench.RunPatience(*runs) }},
		{"gc", func() (fmt.Stringer, error) { return bench.RunGCAblation(5 * *runs * *runs) }},
	}

	matched := false
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
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
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

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"
)

// higherIsBetter names the end-to-end metrics for which more is better; for
// the others less is.
var higherIsBetter = map[string]bool{"commits_per_s": true}

const (
	// benchmarkJSON is the contract file, one directory above the
	// benchmark's working directory.
	benchmarkJSON = "../BENCHMARK.json"
	// maxBound is the largest bound the contract allows.
	maxBound = 0.25
	// setupSlack is the absolute change in setup_s below which a relative
	// change is not flagged: set-up takes well under a second.
	setupSlack = 0.2
)

// contract mirrors BENCHMARK.json key for key, in its order.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract() (*contract, error) {
	b, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	return &c, nil
}

// noise is what repeated runs of one workload showed for one metric.
type noise struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Bound is the share of the median by which the metric may get worse
	// before a change counts as a regression.
	Bound float64 `json:"bound"`
}

// baseline is the file -calibrate writes and -compare reads.
type baseline struct {
	Seed       int64                       `json:"seed"`
	Seconds    int                         `json:"seconds"`
	Runs       int                         `json:"runs"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	Workloads  map[string]map[string]noise `json:"workloads"`
}

// noiseBound is max(0.10, twice the relative range), rounded up to 0.05.
func noiseBound(n noise) float64 {
	b := math.Max(0.10, 2*(n.Max-n.Min)/n.Median)
	return math.Ceil(b/0.05-1e-9) * 0.05
}

// runCalibrate runs every workload `runs` times back to back, untraced,
// writes what it saw to `out` and widens the bounds in BENCHMARK.json to it.
// The contract has one bound per metric, so each gets the noisiest of the
// workloads the contract names, and at most maxBound: where a workload needs
// more, its line says so and a change on that metric and workload can only
// be reported as unresolved.
func runCalibrate(w io.Writer, runs int, doc *document, measure time.Duration, outDir, out string) error {
	if out == "" {
		return fmt.Errorf("-calibrate needs -out, the baseline file to write")
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	gated := make(map[string]bool)
	for _, wl := range c.Workloads {
		gated[wl.Name] = true
	}
	base := baseline{Seed: doc.Seed, Seconds: doc.Seconds, Runs: runs, GOMAXPROCS: doc.GOMAXPROCS,
		Workloads: make(map[string]map[string]noise)}
	bounds := make(map[string]float64)
	for _, wl := range workloads {
		values := make(map[string][]float64)
		var names []string // in the order the run reports them
		for i := 0; i < runs; i++ {
			res, err := runWorkload(wl, runOptions{seed: doc.Seed, measure: measure, setups: untracedSetups, outDir: outDir})
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, i+1, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d requests failed; a baseline needs none", wl.name, i+1, res.Failed, res.Attempted)
			}
			for _, m := range res.Metrics {
				if values[m.Name] == nil {
					names = append(names, m.Name)
				}
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		base.Workloads[wl.name] = make(map[string]noise)
		for _, name := range names {
			vs := values[name]
			n := noise{Median: median(vs), Min: slices.Min(vs), Max: slices.Max(vs)}
			n.Bound = noiseBound(n)
			note := ""
			if n.Bound > maxBound {
				note = fmt.Sprintf("  # wider than the contract's %.2f: unresolved on this workload", maxBound)
			}
			fmt.Fprintf(w, "%s %s median %.6g min %.6g max %.6g bound %.2f%s\n", wl.name, name, n.Median, n.Min, n.Max, n.Bound, note)
			base.Workloads[wl.name][name] = n
			if gated[wl.name] {
				bounds[name] = math.Max(bounds[name], math.Min(n.Bound, maxBound))
			}
		}
	}
	if err := writeJSON(out, base); err != nil {
		return err
	}
	// Only ever widen: five runs in a quiet hour say nothing about a noisy
	// one, and the host the driver measures on has both.
	for i := range c.EndToEnd {
		c.EndToEnd[i].Bound = math.Max(c.EndToEnd[i].Bound, bounds[c.EndToEnd[i].Name])
	}
	return writeJSON(benchmarkJSON, c)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printComparison prints, for every untraced run of doc, each end-to-end
// metric's change against the baseline's median, and flags a change for the
// worse beyond the bound the baseline recorded for that workload. setup_s
// must also have moved by setupSlack; any failed request is flagged.
func printComparison(w io.Writer, path string, doc *document) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range doc.Runs {
		if r.Traced {
			continue
		}
		if r.Failed > 0 {
			fmt.Fprintf(w, "compare %s failed %d of %d  REGRESSION\n", r.Workload, r.Failed, r.Attempted)
		}
		for _, m := range r.Metrics {
			ref, ok := base.Workloads[r.Workload][m.Name]
			if !ok {
				continue
			}
			change := (m.Value - ref.Median) / ref.Median
			worse := change
			if higherIsBetter[m.Name] {
				worse = -change
			}
			flag := ""
			if worse > ref.Bound && (m.Name != "setup_s" || m.Value-ref.Median > setupSlack) {
				flag = "  REGRESSION"
			}
			fmt.Fprintf(w, "compare %s %s %.6g vs %.6g %+.1f%% (bound %.0f%%)%s\n",
				r.Workload, m.Name, m.Value, ref.Median, 100*change, 100*ref.Bound, flag)
		}
	}
	return nil
}

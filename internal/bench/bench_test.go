package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"etx/internal/msg"
)

// The experiment tests run at a small scale so the whole file finishes in a
// few seconds while still asserting every shape claim under reproduction.

func TestFigure8ReproducesPaperShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are meaningless under the race detector's overhead")
	}
	// Whatever else runs on the machine only ever adds time to a request, so
	// the ordering and the overheads are read off each column's fastest
	// request, and a run whose confidence interval a scheduler hiccup blew is
	// measured again, a bounded number of times.
	noisy := func(f *Figure8) bool {
		for _, col := range []Figure8Column{f.Baseline, f.AR, f.TwoPC} {
			if col.TotalCI90 > 0.1*col.Total {
				return true
			}
		}
		return false
	}
	var f *Figure8
	for attempt := 1; attempt <= 8; attempt++ {
		var err error
		f, err = RunFigure8(Figure8Config{Scale: 0.02, Requests: 12, Warmup: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !noisy(f) {
			break
		}
		t.Logf("attempt %d noisy (CIs %.1f/%.1f/%.1f), re-measuring",
			attempt, f.Baseline.TotalCI90, f.AR.TotalCI90, f.TwoPC.TotalCI90)
	}
	t.Logf("\n%s", f)

	// Ordering: baseline < AR < 2PC (who wins).
	base, ar, twoPC := f.Baseline.TotalMin, f.AR.TotalMin, f.TwoPC.TotalMin
	if !(base < ar && ar < twoPC) {
		t.Fatalf("total ordering broken: baseline=%.1f AR=%.1f 2PC=%.1f", base, ar, twoPC)
	}
	// Magnitudes: AR overhead in the paper's ballpark (16%), clearly below
	// 2PC's (23%).
	arOver, twoPCOver := (ar-base)/base*100, (twoPC-base)/base*100
	if arOver < 5 || arOver > 25 {
		t.Errorf("AR overhead %.1f%%, want near the paper's 16%%", arOver)
	}
	if twoPCOver <= arOver+2 {
		t.Errorf("2PC overhead %.1f%% must clearly exceed AR's %.1f%%", twoPCOver, arOver)
	}
	// Mechanism: AR's log rows are in-memory register rounds, much cheaper
	// than 2PC's forced disk writes (the paper's "we save about 25ms" point).
	if f.AR.LogStart >= f.TwoPC.LogStart || f.AR.LogOutcome >= f.TwoPC.LogOutcome {
		t.Errorf("AR log rows (%.1f/%.1f) must undercut 2PC's (%.1f/%.1f)",
			f.AR.LogStart, f.AR.LogOutcome, f.TwoPC.LogStart, f.TwoPC.LogOutcome)
	}
	// The baseline has no prepare phase and no logs.
	if f.Baseline.Prepare != 0 || f.Baseline.LogStart != 0 || f.Baseline.LogOutcome != 0 {
		t.Errorf("baseline must have empty prepare/log rows: %+v", f.Baseline)
	}
	// The paper's methodology: CI width under 10% of the mean.
	if noisy(f) {
		t.Errorf("CIs ±%.1f/±%.1f/±%.1f exceed 10%% of the means %.1f/%.1f/%.1f even after re-measuring",
			f.Baseline.TotalCI90, f.AR.TotalCI90, f.TwoPC.TotalCI90, f.Baseline.Total, f.AR.Total, f.TwoPC.Total)
	}
}

func TestFigure7MessagePatterns(t *testing.T) {
	f, err := RunFigure7(0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	byName := make(map[string]ProtocolTrace)
	for _, p := range f.Protocols {
		name := p.Name
		if idx := strings.IndexByte(name, ' '); idx > 0 {
			name = name[:idx]
		}
		byName[name] = p
	}
	base, ok1 := byName[ProtocolBaseline]
	twoPC, ok2 := byName[Protocol2PC]
	pb, ok3 := byName[ProtocolPB]
	ar, ok4 := byName[ProtocolAR]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing protocols in report: %v", f.Protocols)
	}
	// The diagrams' ordering of communication complexity.
	if !(base.Messages < twoPC.Messages && twoPC.Messages < pb.Messages && pb.Messages < ar.Messages) {
		t.Errorf("message ordering broken: baseline=%d 2PC=%d PB=%d AR=%d",
			base.Messages, twoPC.Messages, pb.Messages, ar.Messages)
	}
	// Structural checks straight off Figure 7: the baseline has no prepare,
	// 2PC adds prepare/vote, PB adds the start/outcome records, AR adds the
	// consensus traffic of the two register writes.
	if base.Counts[kindOf("Prepare")] != 0 {
		t.Error("baseline must not prepare")
	}
	if twoPC.Counts[kindOf("Prepare")] != 1 || twoPC.Counts[kindOf("Vote")] != 1 {
		t.Errorf("2PC prepare/vote counts: %v", twoPC.Counts)
	}
	if pb.Counts[kindOf("PBStart")] != 1 || pb.Counts[kindOf("PBOutcome")] != 1 {
		t.Errorf("PB start/outcome counts: %v", pb.Counts)
	}
	if ar.Counts[kindOf("Propose")] == 0 || ar.Counts[kindOf("Decision")] == 0 {
		t.Errorf("AR consensus traffic missing: %v", ar.Counts)
	}
}

func TestFigure1Scenarios(t *testing.T) {
	f, err := RunFigure1(0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if len(f.Scenarios) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(f.Scenarios))
	}
	// (a) one try; (b) two tries; (c) fail-over yet still try 1 (the
	// crashed primary's result survives through regD); (d) two tries.
	wantTries := []uint64{1, 2, 1, 2}
	for i, sc := range f.Scenarios {
		if sc.Tries != wantTries[i] {
			t.Errorf("%s: tries = %d, want %d", sc.Name, sc.Tries, wantTries[i])
		}
	}
	if !f.Scenarios[2].CrashRan || !f.Scenarios[3].CrashRan {
		t.Error("fail-over scenarios must actually crash the primary")
	}
}

func TestFailoverLatencyDominatedBySuspicion(t *testing.T) {
	f, err := RunFailover(FailoverConfig{Scale: 0.01, Runs: 2, SuspectTimeout: 25 * 1e6})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", f)
	if len(f.Rows) != 5 {
		t.Fatalf("want 5 crash points, got %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Latency.Mean <= f.NoCrash.Mean {
			t.Errorf("%s: failover latency %.1fms not above failure-free %.1fms",
				r.Point, r.Latency.Mean, f.NoCrash.Mean)
		}
	}
}

func TestSuspicionExperimentSeparatesProtocols(t *testing.T) {
	s, err := RunSuspicion(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", s)
	if s.PBInconsistent == 0 {
		t.Error("primary-backup must show inconsistencies under false suspicion")
	}
	if s.ARInconsistent != 0 {
		t.Errorf("AR showed %d inconsistencies; the wo-registers must prevent all", s.ARInconsistent)
	}
	if s.ARDeliveredAll != s.Runs {
		t.Errorf("AR delivered %d/%d runs", s.ARDeliveredAll, s.Runs)
	}
}

func TestWORegisterMicrobench(t *testing.T) {
	w, err := RunWORegister(0.01, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", w)
	if w.Uncontended.Mean <= 0 || w.Contended.Mean <= 0 {
		t.Error("empty samples")
	}
}

func TestGCAblationReclaimsRegisters(t *testing.T) {
	g, err := RunGCAblation(40)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", g)
	if g.KeysWith >= g.KeysWithout {
		t.Errorf("retirement must reduce retained keys: with=%d without=%d",
			g.KeysWith, g.KeysWithout)
	}
	if g.KeysWithout == 0 {
		t.Error("without retirement, register keys must accumulate")
	}
}

func TestPatienceSweepMorphsRegimes(t *testing.T) {
	p, err := RunPatience(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", p)
	if len(p.Rows) != 4 {
		t.Fatalf("want 4 patience settings, got %d", len(p.Rows))
	}
	impatient := p.Rows[0]
	patient := p.Rows[len(p.Rows)-1]
	// Impatient clients broadcast: more replicas race on regA and more
	// messages fly; patient clients leave the primary alone.
	if impatient.RegARaces <= patient.RegARaces {
		t.Errorf("regA racers: impatient %.1f <= patient %.1f; the regimes must differ",
			impatient.RegARaces, patient.RegARaces)
	}
	if patient.RegARaces > 1.5 {
		t.Errorf("patient regime should be primary-backup-like, got %.1f racers", patient.RegARaces)
	}
	if impatient.Messages <= patient.Messages {
		t.Errorf("messages: impatient %.1f <= patient %.1f", impatient.Messages, patient.Messages)
	}
}

// commonMetrics are the per-commit rates and gauges the driver records for
// every cell of every sweep.
var commonMetrics = []string{
	"consensus.proposes_per_commit", "consensus.msgs_per_commit",
	"stablestore.syncs_per_commit", "stablestore.forces_per_commit",
	"xadb.spec_execs_per_commit", "xadb.deferred_votes_per_commit",
	"core.planned_ops_per_commit",
	"consensus.rounds_per_propose", "consensus.fastpath_share", "consensus.resends",
	"consensus.slots_pruned", "consensus.checkpoints_served", "consensus.live_slots",
	"stablestore.forced_per_sync", "proc.heap_delta_kb",
}

// shapeT collects a sweep's timing claims apart from its counter claims: a
// neighbour on the machine can slow either row of a comparison, so a timing
// claim that fails is measured again (a bounded number of times) before it
// fails the test, and is not checked at all under the race detector.
type shapeT struct {
	*testing.T
	slow []string
}

func (t *shapeT) timing(ok bool, format string, args ...any) {
	if !ok && !raceEnabled {
		t.slow = append(t.slow, fmt.Sprintf(format, args...))
	}
}

// sweepClaim is one named claim a sweep's quick run must show, beyond the
// oracle and the sweep's own check (which fail the run itself).
type sweepClaim struct {
	name, sweep string
	shape       func(t *shapeT, rep *Report)
}

// batchingDepth32 is the batching sweep's off and adaptive rows at depth 32.
func batchingDepth32(t *shapeT, rep *Report) (off, on *Row) {
	t.Helper()
	wantRows(t, rep, 4)
	off, on = rep.Find("depth", "32", "batching", "off"), rep.Find("depth", "32", "batching", "adaptive")
	if off == nil || on == nil {
		t.Fatal("missing depth-32 rows")
	}
	return off, on
}

// offRows calls f on each of the batching sweep's off rows, the paper's
// protocol exactly at every depth.
func offRows(rep *Report, f func(r Row)) {
	for _, r := range rep.Rows {
		if r.Params["batching"] == "off" {
			f(r)
		}
	}
}

var sweepClaims = []sweepClaim{
	{"pipeline", "pipeline", func(t *shapeT, rep *Report) { wantRows(t, rep, 3) }},
	{"scaling", "scaling", func(t *shapeT, rep *Report) { wantRows(t, rep, 5) }},
	{"shards", "shards", func(t *shapeT, rep *Report) {
		wantRows(t, rep, 8)
		wide, narrow := rep.Find("shards", "8", "keys", "uniform"), rep.Find("shards", "1", "keys", "uniform")
		if wide == nil || narrow == nil {
			t.Fatal("missing the 1- or 8-shard uniform row")
		}
		// The routing certificate: a single-shard transaction on an 8-shard
		// tier must issue Prepare and Decide to exactly 1 engine, not 8. A
		// handful of protocol-level resends under scheduler noise is
		// tolerated; a broadcast would put these at 8.0.
		for _, m := range []string{"core.prepares_per_commit", "core.decides_per_commit"} {
			if v := wide.Metric(m); v > 1.5 {
				t.Errorf("8-shard uniform %s = %.2f, want ~1 (participant set, not broadcast)", m, v)
			}
		}
		t.timing(wide.CommitsPerS >= narrow.CommitsPerS,
			"throughput must not fall as shards are added: 1 shard %.1f, 8 shards %.1f",
			narrow.CommitsPerS, wide.CommitsPerS)
	}},
	// The batching sweep's claims, one per layer adaptive batching reaches:
	// the log device (group commit), the consensus tier (cohort instances)
	// and the whole path end to end.
	{"batch", "batching", func(t *shapeT, rep *Report) {
		const syncs = "stablestore.syncs_per_commit"
		// Off forces a prepare and a commit per request, each its own fsync.
		offRows(rep, func(r Row) {
			if v := r.Metric(syncs); v != 2 {
				t.Errorf("off at depth %d paid %.2f fsyncs/commit, want 2.00", r.Depth, v)
			}
		})
		if _, on := batchingDepth32(t, rep); on.Metric(syncs) >= 1 {
			t.Errorf("adaptive at depth 32 paid %.2f fsyncs/commit, want under 1", on.Metric(syncs))
		}
	}},
	{"consensus", "batching", func(t *shapeT, rep *Report) {
		const proposes, msgs = "consensus.proposes_per_commit", "consensus.msgs_per_commit"
		// Off runs one consensus instance per register write.
		offRows(rep, func(r Row) {
			if v := r.Metric(proposes); v != 2 {
				t.Errorf("off at depth %d ran %.2f instances/commit, want 2.00 (one per register write)", r.Depth, v)
			}
		})
		off, on := batchingDepth32(t, rep)
		if on.Metric(proposes) >= off.Metric(proposes)/2 {
			t.Errorf("adaptive at depth 32 barely shared instances: %.2f vs %.2f", on.Metric(proposes), off.Metric(proposes))
		}
		if on.Metric(msgs) >= off.Metric(msgs) {
			t.Errorf("adaptive at depth 32 did not cut consensus messages: %.2f vs %.2f", on.Metric(msgs), off.Metric(msgs))
		}
		for _, r := range []*Row{off, on} {
			if v := r.Metric("consensus.fastpath_share"); v < 0.99 {
				t.Errorf("%s: failure-free runs must ride the round-1 fast path, got %.2f", r.Params["batching"], v)
			}
		}
	}},
	{"wire", "batching", func(t *shapeT, rep *Report) {
		off, on := batchingDepth32(t, rep)
		t.timing(on.CommitsPerS >= off.CommitsPerS,
			"adaptive lost throughput at depth 32: %.1f vs %.1f", on.CommitsPerS, off.CommitsPerS)
	}},
	{"memory", "memory", func(t *shapeT, rep *Report) {
		off, on := rep.Find("retain", "0"), rep.Find("retain", "64")
		if off == nil || on == nil {
			t.Fatal("missing rows")
		}
		if off.Metric("consensus.slots_pruned") != 0 || on.Metric("consensus.slots_pruned") == 0 {
			t.Errorf("pruned %v slots with retention off and %v with it on",
				off.Metric("consensus.slots_pruned"), on.Metric("consensus.slots_pruned"))
		}
		if on.Metric("consensus.live_slots_max") >= off.Metric("consensus.live_slots_max") {
			t.Errorf("retention tail did not bound the batch log: max %v slots vs %v without",
				on.Metric("consensus.live_slots_max"), off.Metric("consensus.live_slots_max"))
		}
	}},
}

func wantRows(t *shapeT, rep *Report, n int) {
	t.Helper()
	if len(rep.Rows) != n {
		t.Fatalf("want %d rows, got %d", n, len(rep.Rows))
	}
}

// TestSweepsQuick runs every sweep's -quick cells through the one driver:
// the oracle and each sweep's check fail the run itself, every row must carry
// the common fields, and each sweep must show its claims.
func TestSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep's quick cells")
	}
	for _, s := range sweeps {
		if !slices.ContainsFunc(sweepClaims, func(c sweepClaim) bool { return c.sweep == s.name }) {
			t.Errorf("sweep %q has no shape assertions", s.name)
		}
	}
	for _, c := range sweepClaims {
		t.Run(c.name, func(t *testing.T) {
			i := slices.IndexFunc(sweeps, func(s sweep) bool { return s.name == c.sweep })
			if i < 0 {
				t.Fatalf("no sweep %q", c.sweep)
			}
			s, shape := sweeps[i], c.shape
			for attempt := 1; ; attempt++ {
				rep, err := s.run(options{quick: true})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("\n%s", rep)
				for _, r := range rep.Rows {
					if r.Depth <= 0 || r.Requests <= 0 || r.CommitsPerS <= 0 || r.P50Ms <= 0 || r.P99Ms < r.P50Ms {
						t.Errorf("row %v lacks a common field: %+v", r.Params, r)
					}
					for _, p := range rep.Params {
						if r.Label(p) == "" {
							t.Errorf("row %v has no %q label", r.Params, p)
						}
					}
					for _, m := range append(commonMetrics, rep.Metrics...) {
						_, rate := r.PerCommit[m]
						_, gauge := r.Gauges[m]
						if !rate && !gauge {
							t.Errorf("row %v has no %q", r.Params, m)
						}
					}
				}
				st := &shapeT{T: t}
				shape(st, rep)
				if len(st.slow) == 0 || t.Failed() {
					return
				}
				if attempt == 3 {
					t.Fatalf("after %d measurements: %s", attempt, strings.Join(st.slow, "; "))
				}
				t.Logf("attempt %d: %s; re-measuring", attempt, strings.Join(st.slow, "; "))
			}
		})
	}
}

// TestReportSchema pins the JSON key set every sweep's report shares.
func TestReportSchema(t *testing.T) {
	blob, err := json.Marshal(Report{Note: "n", Rows: []Row{{}}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) string {
		return strings.Join(slices.Sorted(maps.Keys(m)), " ")
	}
	if got, want := keys(doc), "exp metrics note params rows title"; got != want {
		t.Errorf("report keys = %q, want %q", got, want)
	}
	want := "commit_p50_ms commit_p99_ms commits_per_s depth gauges params per_commit requests"
	if got := keys(rows[0]); got != want {
		t.Errorf("row keys = %q, want %q", got, want)
	}
}

// TestReadmeListsEverySweep holds the README's experiment table to the sweep
// table it is generated from.
func TestReadmeListsEverySweep(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Sweeps() {
		if line := fmt.Sprintf("| `%s` | %s |", s[0], s[1]); !strings.Contains(string(readme), line) {
			t.Errorf("README.md lacks the row %q", line)
		}
	}
}

// kindOf maps a kind name back to its Kind (test helper).
func kindOf(name string) msg.Kind {
	for i := 1; i < 64; i++ {
		if msg.Kind(i).String() == name {
			return msg.Kind(i)
		}
	}
	return 0
}

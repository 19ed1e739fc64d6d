package bench

import (
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
	// measured again, a bounded number of times. The run is at the harness's
	// default scale: every unscaled millisecond is read back 1/scale times
	// larger, and at 0.02 the goroutine hops of AR's in-memory register
	// rounds, magnified 50x, could outweigh their modelled cost on a loaded
	// machine and overturn the log-row and overhead comparisons.
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
		f, err = RunFigure8(Figure8Config{Scale: 0.05, Requests: 12, Warmup: 2})
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
	p, err := RunPatience(4)
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

// kindOf maps a kind name back to its Kind (test helper).
func kindOf(name string) msg.Kind {
	for i := 1; i < 64; i++ {
		if msg.Kind(i).String() == name {
			return msg.Kind(i)
		}
	}
	return 0
}

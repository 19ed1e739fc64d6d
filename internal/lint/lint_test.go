package lint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backquoted expectation regexes from a
// `// want `re1` `re2“ comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans a fixture source file for `// want` expectations.
func parseWants(t *testing.T, path string) []*expectation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	var out []*expectation
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		i := strings.Index(text, "// want ")
		if i < 0 {
			continue
		}
		for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
			}
			out = append(out, &expectation{file: path, line: line, re: re})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan fixture: %v", err)
	}
	return out
}

// runFixture loads one fixture package through the production go-list driver,
// runs the given analyzers, and checks the diagnostics against the fixture's
// `// want` comments exactly: every want must be hit, every diagnostic must
// be wanted.
func runFixture(t *testing.T, pattern string, analyzers []*Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, []string{pattern})
	if err != nil {
		t.Fatalf("Load(%s): %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("Load(%s): no packages", pattern)
	}
	for _, pkg := range pkgs {
		var wants []*expectation
		seen := make(map[string]bool)
		for _, f := range pkg.Files {
			path := pkg.Fset.Position(f.Pos()).Filename
			if seen[path] {
				continue
			}
			seen[path] = true
			wants = append(wants, parseWants(t, path)...)
		}
		diags, err := RunAnalyzers(pkg, analyzers)
		if err != nil {
			t.Fatalf("RunAnalyzers(%s): %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			matched := false
			for _, w := range wants {
				if w.hit || w.file != pos.Filename || w.line != pos.Line {
					continue
				}
				if w.re.MatchString(d.Message) {
					w.hit = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("unexpected diagnostic %s: %s: %s", pos, d.Analyzer, d.Message)
			}
		}
		for _, w := range wants {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
			}
		}
	}
}

func TestKindSwitchFixture(t *testing.T) { runFixture(t, "./msg", []*Analyzer{KindSwitch}) }

func TestWallClockFixture(t *testing.T) { runFixture(t, "./etx", []*Analyzer{WallClock}) }

func TestLockHeldFixture(t *testing.T) { runFixture(t, "./locks", []*Analyzer{LockHeld}) }

func TestStatsWiredFixture(t *testing.T) { runFixture(t, "./stats", []*Analyzer{StatsWired}) }

// TestEpochFenceFixture pins the stale-primary-vote bug shape: handlers
// that tally votes or adopt promotions without an epoch/incarnation compare
// are caught; fenced, delegated, and justified handlers are not.
func TestEpochFenceFixture(t *testing.T) { runFixture(t, "./epoch/...", []*Analyzer{EpochFence}) }

func TestAtomicMixFixture(t *testing.T) { runFixture(t, "./atomix", []*Analyzer{AtomicMix}) }

// TestAtomicMixCopyIsVetFinding: the one atomix case atomicmix leaves to go
// vet — copying a typed atomic out of its field — is copylocks' finding, on
// copyTyped's line.
func TestAtomicMixCopyIsVetFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet")
	}
	dir := filepath.Join("testdata", "src")
	src, err := os.ReadFile(filepath.Join(dir, "atomix", "atomix.go"))
	if err != nil {
		t.Fatal(err)
	}
	line := 0
	for i, l := range strings.Split(string(src), "\n") {
		if strings.TrimSpace(l) == "d := n.depth" {
			line = i + 1
		}
	}
	if line == 0 {
		t.Fatal("atomix.go has no copy of n.depth")
	}
	cmd := exec.Command("go", "vet", "-copylocks", "./atomix")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	want := fmt.Sprintf("atomix.go:%d:", line)
	if err == nil || !strings.Contains(string(out), want) || !strings.Contains(string(out), "copies lock value") {
		t.Fatalf("go vet -copylocks on the fixture (err %v) did not report the copy at %s:\n%s", err, want, out)
	}
}

func TestGoLifecycleFixture(t *testing.T) { runFixture(t, "./lifecycle", []*Analyzer{GoLifecycle}) }

// TestRunAnalyzersAllKeepsSuppressed checks the -json contract: suppressed
// findings are kept and flagged rather than dropped, and every diagnostic
// round-trips through its JSON wire form unchanged (the CI annotation step
// parses exactly these objects).
func TestRunAnalyzersAllKeepsSuppressed(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, []string{"./lifecycle"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	pkg := pkgs[0]
	diags, err := RunAnalyzersAll(pkg, []*Analyzer{GoLifecycle})
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, open int
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			open++
		}
	}
	if suppressed != 1 || open != 1 {
		t.Fatalf("want 1 suppressed + 1 open finding, got %d suppressed, %d open", suppressed, open)
	}
	for _, d := range diags {
		wire := d.ToJSON(pkg.Fset)
		buf, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back JSONDiagnostic
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if back != wire {
			t.Errorf("JSON round-trip diverged:\n first: %+v\nsecond: %+v", wire, back)
		}
		if back.File == "" || back.Line == 0 || back.Analyzer != "golifecycle" {
			t.Errorf("wire form missing position/analyzer: %+v", back)
		}
	}
}

// TestSuppressions checks the -audit-suppressions contract: every
// //etxlint:allow annotation is listed with its justification, and an
// annotation with no justification surfaces as empty (the audit mode turns
// that into a failure).
func TestSuppressions(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, []string{"./atomix"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	sup := Suppressions(pkgs[0])
	if len(sup) != 2 {
		t.Fatalf("want 2 suppressions in ./atomix, got %d: %+v", len(sup), sup)
	}
	// File order: the justified constructor seed comes first, the bare
	// teardown annotation second.
	if got := sup[0].Justification; got != "constructor runs before any goroutine shares n" {
		t.Errorf("justification = %q, want the constructor reason", got)
	}
	if sup[1].Justification != "" {
		t.Errorf("bare annotation justification = %q, want empty", sup[1].Justification)
	}
	for _, s := range sup {
		if len(s.Analyzers) != 1 || s.Analyzers[0] != "atomicmix" {
			t.Errorf("analyzers = %v, want [atomicmix]", s.Analyzers)
		}
		if s.File == "" || s.Line == 0 {
			t.Errorf("suppression missing position: %+v", s)
		}
	}
}

// TestSuiteOnFixtures runs the whole suite over every fixture package at
// once, the way cmd/etxlint does: the wants of every analyzer must be
// produced together, and nothing extra.
func TestSuiteOnFixtures(t *testing.T) { runFixture(t, "./...", All()) }

// TestRealTreeClean is the enforcement test: the production tree must be
// free of findings. A regression here means either a genuine invariant
// violation or a missing justified annotation — both want a human look.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatalf("RunAnalyzers(%s): %v", pkg.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is the one Loader of the test binary: fixtures (under
// synthetic import paths), the real module and the mutation table's
// forks all resolve imports through it, so the standard library is
// type-checked from source once, not once per test.
var sharedLoader struct {
	once sync.Once
	l    *Loader
	err  error
}

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	s := &sharedLoader
	s.once.Do(func() {
		var root string
		if root, s.err = FindModuleRoot("."); s.err == nil {
			s.l, s.err = NewLoader(root)
		}
	})
	if s.err != nil {
		t.Fatalf("NewLoader: %v", s.err)
	}
	return s.l
}

func loadFixture(t *testing.T, l *Loader, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches "// want `regex`" (backquotes optional) expectation
// comments inside fixtures.
var wantRe = regexp.MustCompile("^// want\\s+`?([^`]+)`?\\s*$")

type expectation struct {
	line int
	re   *regexp.Regexp
}

func expectations(t *testing.T, pkg *Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regex %q: %v", m[1], err)
				}
				out = append(out, expectation{pkg.Fset.Position(c.Pos()).Line, re})
			}
		}
	}
	return out
}

// runFixture checks one checker against its fixture: every finding
// must be expected by a want comment on its line, and every want
// comment must be hit.
func runFixture(t *testing.T, name string, checker Checker) {
	t.Helper()
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, name)
	findings := Run([]*Package{pkg}, []Checker{checker})
	wants := expectations(t, pkg)

	matched := make([]bool, len(wants))
	for _, f := range findings {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.line == f.Pos.Line && w.re.MatchString(f.Msg) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected finding matching %q, got none", name, w.line, w.re)
		}
	}
}

func TestClockcheckFixture(t *testing.T) { runFixture(t, "clockfix", clockCheck{}) }
func TestRandcheckFixture(t *testing.T)  { runFixture(t, "randfix", randCheck{}) }
func TestLockcheckFixture(t *testing.T)  { runFixture(t, "lockfix", lockCheck{}) }
func TestWalerrcheckFixture(t *testing.T) {
	runFixture(t, "walfix", walErrCheck{})
}
func TestObscheckFixture(t *testing.T) { runFixture(t, "obsfix", obsCheck{}) }

func TestLockorderFixture(t *testing.T) { runFixture(t, "lockorderfix", lockOrderCheck{}) }
func TestCtxcheckFixture(t *testing.T)  { runFixture(t, "ctxfix", ctxCheck{}) }

// A library package under internal/: the same rule, plus the sanctioned
// //pstorm:allow shape.
func TestCtxcheckInternalFixture(t *testing.T) {
	runFixture(t, "internal/ctxrootfix", ctxCheck{})
}
func TestTenantcheckFixture(t *testing.T) {
	runFixture(t, "tenantfix", tenantCheck{})
}
func TestLeakcheckFixture(t *testing.T) { runFixture(t, "leakfix", leakCheck{}) }

// TestUnusedAllow: a directive that suppresses nothing is reported —
// but only when the checker it names was part of the run, so a
// single-checker session never flags another checker's exceptions.
func TestUnusedAllow(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "unusedallowfix")

	findings := Run([]*Package{pkg}, nil)
	unused := 0
	for _, f := range findings {
		if f.Checker == unusedAllowChecker {
			unused++
			continue
		}
		t.Errorf("unexpected finding: %s", f)
	}
	if unused != 1 {
		t.Errorf("unusedallow findings = %d, want 1 (one stale directive in the fixture)", unused)
	}

	if fs := Run([]*Package{pkg}, []Checker{randCheck{}}); len(fs) != 0 {
		t.Errorf("randcheck-only run must not flag clockcheck directives, got:\n%s", joinFindings(fs))
	}
}

// TestAllowDirectiveSuppresses runs the full suite over a fixture
// whose findings are all annotated; nothing may survive.
func TestAllowDirectiveSuppresses(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "allowfix")
	if findings := Run([]*Package{pkg}, nil); len(findings) != 0 {
		t.Errorf("annotated fixture should be clean, got %d findings:\n%s",
			len(findings), joinFindings(findings))
	}
}

// TestMalformedDirectives: an unknown checker name or a missing reason
// in a //pstorm:allow is itself reported, and such a directive does
// not suppress the finding it sits next to.
func TestMalformedDirectives(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "badallowfix")
	findings := Run([]*Package{pkg}, nil)

	var unknown, noReason, clock int
	for _, f := range findings {
		switch {
		case f.Checker == directiveChecker && strings.Contains(f.Msg, "unknown checker"):
			unknown++
		case f.Checker == directiveChecker && strings.Contains(f.Msg, "needs a reason"):
			noReason++
		case f.Checker == "clockcheck":
			clock++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if unknown != 1 {
		t.Errorf("unknown-checker directive findings = %d, want 1", unknown)
	}
	if noReason != 1 {
		t.Errorf("missing-reason directive findings = %d, want 1", noReason)
	}
	if clock != 2 {
		t.Errorf("clockcheck findings = %d, want 2 (malformed directives must not suppress)", clock)
	}
}

// TestModuleClean is the repo's own gate: the full suite over every
// non-test package must come back empty. This is the same run CI does
// via cmd/pstorm-vet.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages — loader regression?", len(pkgs))
	}
	if fs := Run(pkgs, nil); len(fs) != 0 {
		t.Errorf("module has %d findings:\n%s", len(fs), joinFindings(fs))
	}
}

func joinFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

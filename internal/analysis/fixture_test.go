package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureOverrides adjusts how individual corpus files are loaded so
// the fixtures can exercise unit-level behavior (package-path
// exemptions, test-file skipping) that a plain directory load cannot.
var fixtureOverrides = map[string]struct {
	pkgPath string // type-check under this import path instead
	asTest  bool   // mark the file as a _test.go source
}{
	"wallclock_sim.go":            {pkgPath: "autoindex/internal/sim"},
	"wallclock_wire.go":           {pkgPath: "autoindex/internal/wire"},
	"wallclock_serve.go":          {pkgPath: "autoindex/internal/serve"},
	"wallclock_testfile.go":       {asTest: true},
	"lockdiscipline_testfile.go":  {asTest: true},
	"metricsdiscipline_timing.go": {asTest: true},
	"detflow_capture.go":          {pkgPath: "autoindex/internal/serve"},
	"leakcheck_serve.go":          {pkgPath: "autoindex/internal/serve"},
}

// want pins one expected diagnostic (a regexp over "check: message")
// to a file line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

func collectWants(t *testing.T, path string) []*want {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	var wants []*want
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
		}
		wants = append(wants, &want{file: path, line: i + 1, re: re, raw: m[1]})
	}
	return wants
}

// TestFixtureCorpus loads every file in testdata/ as its own analysis
// unit, runs the full suite, and asserts an exact bijection between
// diagnostics and want annotations: every diagnostic must land on a
// line carrying a matching want, and every want must be hit.
func TestFixtureCorpus(t *testing.T) {
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(moduleRoot, "internal", "analysis", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	var units []*Unit
	var wants []*want
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		pkgPath := "autoindex/internal/analysis/testdata"
		ov := fixtureOverrides[name]
		if ov.pkgPath != "" {
			pkgPath = ov.pkgPath
		}
		pkg, info, err := l.check(pkgPath, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("type-checking %s: %v", name, err)
		}
		u := &Unit{
			Path:      pkgPath,
			Dir:       dir,
			Fset:      l.fset,
			Files:     []*ast.File{f},
			TestFiles: make(map[*ast.File]bool),
			Pkg:       pkg,
			Info:      info,
		}
		if ov.asTest {
			u.TestFiles[f] = true
		}
		units = append(units, u)
		wants = append(wants, collectWants(t, full)...)
	}
	if len(units) == 0 {
		t.Fatal("no fixture files found")
	}
	if len(wants) == 0 {
		t.Fatal("no want annotations found in fixtures")
	}

	diags := Run(units, Analyzers())

	for _, d := range diags {
		text := d.Check + ": " + d.Message
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d: want %q", w.file, w.line, w.raw)
		}
	}
}

// checkUnit type-checks one in-memory source file under a neutral
// module path and runs the named analyzers over it.
func checkUnit(t *testing.T, filename, src string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	return checkUnitAt(t, filename, src, "autoindex/internal/analysis/inline", analyzers)
}

// checkUnitAt is checkUnit with an explicit import path, for analyzers
// whose behavior depends on the package (leakcheck's serving-path
// scope, the sanctioned-package exemptions).
func checkUnitAt(t *testing.T, filename, src, pkgPath string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	pkg, info, err := l.check(pkgPath, []*ast.File{f}, nil)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	u := &Unit{
		Path:      pkgPath,
		Fset:      l.fset,
		Files:     []*ast.File{f},
		TestFiles: make(map[*ast.File]bool),
		Pkg:       pkg,
		Info:      info,
	}
	return Run([]*Unit{u}, analyzers)
}

// TestDiagnosticPositions asserts the exact file:line:col every
// analyzer reports for a minimal trigger, so positions cannot silently
// drift to the wrong token.
func TestDiagnosticPositions(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		src      string
		pkgPath  string // defaults to the neutral inline path
		pos      string // "line:col" of the single expected diagnostic
		substr   string
	}{
		{
			name:     "maporder reports the for keyword",
			analyzer: MapOrderAnalyzer,
			src: "package p\n" +
				"\n" +
				"func f(m map[string]int) []string {\n" +
				"\tvar out []string\n" +
				"\tfor k := range m {\n" + // line 5, "for" at col 2 (after one tab)
				"\t\tout = append(out, k)\n" +
				"\t}\n" +
				"\treturn out\n" +
				"}\n",
			pos:    "5:2",
			substr: "append to out",
		},
		{
			name:     "wallclock reports the call expression",
			analyzer: WallClockAnalyzer,
			src: "package p\n" +
				"\n" +
				"import \"time\"\n" +
				"\n" +
				"func f() time.Time {\n" +
				"\treturn time.Now()\n" + // line 6, "time" at col 9 after tab+"return "
				"}\n",
			pos:    "6:9",
			substr: "time.Now reads the wall clock",
		},
		{
			name:     "errcompare reports the comparison",
			analyzer: ErrCompareAnalyzer,
			src: "package p\n" +
				"\n" +
				"import \"errors\"\n" +
				"\n" +
				"var errX = errors.New(\"x\")\n" +
				"\n" +
				"func f(err error) bool {\n" +
				"\treturn err == errX\n" + // line 8, "err" at col 9
				"}\n",
			pos:    "8:9",
			substr: "error compared with == against sentinel errX",
		},
		{
			name:     "lockdiscipline reports the unpaired Lock",
			analyzer: LockDisciplineAnalyzer,
			src: "package p\n" +
				"\n" +
				"import \"sync\"\n" +
				"\n" +
				"var mu sync.Mutex\n" +
				"\n" +
				"func f() {\n" +
				"\tmu.Lock()\n" + // line 8, "mu" at col 2
				"}\n",
			pos:    "8:2",
			substr: "Lock of mu without a matching Unlock",
		},
		{
			name:     "metricsdiscipline reports the runtime registration",
			analyzer: MetricsDisciplineAnalyzer,
			src: "package p\n" +
				"\n" +
				"import \"autoindex/internal/metrics\"\n" +
				"\n" +
				"func f() *metrics.Desc {\n" +
				"\treturn metrics.NewCounterDesc(\"p.x\", \"y\")\n" + // line 6, "metrics" at col 9
				"}\n",
			pos:    "6:9",
			substr: "metrics.NewCounterDesc called at runtime",
		},
		{
			name:     "lockorder reports the re-acquiring call",
			analyzer: LockOrderAnalyzer,
			src: "package p\n" +
				"\n" +
				"import \"sync\"\n" +
				"\n" +
				"type box struct {\n" +
				"\tmu sync.Mutex\n" +
				"}\n" +
				"\n" +
				"func (b *box) outer() {\n" +
				"\tb.mu.Lock()\n" +
				"\tdefer b.mu.Unlock()\n" +
				"\tb.inner()\n" + // line 12, "b" at col 2
				"}\n" +
				"\n" +
				"func (b *box) inner() {\n" +
				"\tb.mu.Lock()\n" +
				"\tb.mu.Unlock()\n" +
				"}\n",
			pos:    "12:2",
			substr: "may re-acquire it",
		},
		{
			name:     "detflow reports the sink call",
			analyzer: DetFlowAnalyzer,
			src: "package p\n" +
				"\n" +
				"import (\n" +
				"\t\"fmt\"\n" +
				"\t\"time\"\n" +
				")\n" +
				"\n" +
				"func stamp() time.Time {\n" +
				"\treturn time.Now()\n" +
				"}\n" +
				"\n" +
				"func emit() {\n" +
				"\tfmt.Println(stamp())\n" + // line 13, "fmt" at col 2
				"}\n",
			pos:    "13:2",
			substr: "reaches deterministic sink fmt.Println",
		},
		{
			name:     "leakcheck reports the go call",
			analyzer: LeakCheckAnalyzer,
			src: "package p\n" +
				"\n" +
				"func spin() {\n" +
				"\tfor {\n" +
				"\t}\n" +
				"}\n" +
				"\n" +
				"func launch() {\n" +
				"\tgo spin()\n" + // line 9, "spin" at col 5
				"}\n",
			pkgPath: "autoindex/internal/serve",
			pos:     "9:5",
			substr:  "not provably joinable",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			filename := strings.ReplaceAll(tc.name, " ", "_") + ".go"
			pkgPath := tc.pkgPath
			if pkgPath == "" {
				pkgPath = "autoindex/internal/analysis/inline"
			}
			diags := checkUnitAt(t, filename, tc.src, pkgPath, []*Analyzer{tc.analyzer})
			if len(diags) != 1 {
				t.Fatalf("got %d diagnostics, want exactly 1: %v", len(diags), diags)
			}
			d := diags[0]
			got := fmt.Sprintf("%d:%d", d.Pos.Line, d.Pos.Column)
			if got != tc.pos {
				t.Errorf("diagnostic at %s, want %s (message %q)", got, tc.pos, d.Message)
			}
			if d.Pos.Filename != filename {
				t.Errorf("diagnostic filename %q, want %q", d.Pos.Filename, filename)
			}
			if !strings.Contains(d.Message, tc.substr) {
				t.Errorf("message %q does not contain %q", d.Message, tc.substr)
			}
		})
	}
}

// TestMalformedDirective verifies that an //lint:ignore without a
// reason is reported under the unsuppressible "directive" pseudo-check
// and that the directive it rode in on does not suppress anything.
func TestMalformedDirective(t *testing.T) {
	src := "package p\n" +
		"\n" +
		"import \"errors\"\n" +
		"\n" +
		"var errX = errors.New(\"x\")\n" +
		"\n" +
		"func f(err error) bool {\n" +
		"\t//lint:ignore errcompare\n" + // line 8: no reason → malformed
		"\treturn err == errX\n" + // line 9: NOT suppressed
		"}\n"
	diags := checkUnit(t, "malformed.go", src, Analyzers())
	var checks []string
	for _, d := range diags {
		checks = append(checks, fmt.Sprintf("%d:%s", d.Pos.Line, d.Check))
	}
	sort.Strings(checks)
	wantChecks := []string{"8:directive", "9:errcompare"}
	if strings.Join(checks, ",") != strings.Join(wantChecks, ",") {
		t.Fatalf("got diagnostics %v, want %v", checks, wantChecks)
	}
	for _, d := range diags {
		if d.Check == "directive" && !strings.Contains(d.Message, "need a check name and a reason") {
			t.Errorf("directive message %q lacks the reason hint", d.Message)
		}
	}
}

// TestIgnoreInventory checks that the inventory reflects well-formed
// directives in position order and dedupes nothing that is distinct.
func TestIgnoreInventory(t *testing.T) {
	src := "package p\n" +
		"\n" +
		"import \"errors\"\n" +
		"\n" +
		"var errX = errors.New(\"x\")\n" +
		"\n" +
		"func f(err error) bool {\n" +
		"\t//lint:ignore errcompare fixture reason one\n" +
		"\tif err == errX {\n" +
		"\t\treturn true\n" +
		"\t}\n" +
		"\treturn err == errX //lint:ignore errcompare fixture reason two\n" +
		"}\n"
	moduleRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(l.fset, "inv.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	_, bad := collectIgnores(l.fset, []*ast.File{f})
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	u := &Unit{Path: "p", Fset: l.fset, Files: []*ast.File{f}}
	inv := Inventory([]*Unit{u, u}) // duplicated unit: inventory must dedupe
	if len(inv) != 2 {
		t.Fatalf("inventory has %d entries, want 2: %v", len(inv), inv)
	}
	if inv[0].Reason != "fixture reason one" || inv[1].Reason != "fixture reason two" {
		t.Errorf("inventory reasons out of order: %q, %q", inv[0].Reason, inv[1].Reason)
	}
}

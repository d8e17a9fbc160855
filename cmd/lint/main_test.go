package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"autoindex/internal/analysis"
)

func TestModuleRel(t *testing.T) {
	root := filepath.FromSlash("/mod")
	cases := []struct{ in, want string }{
		{filepath.FromSlash("/mod/internal/engine/db.go"), "internal/engine/db.go"},
		{filepath.FromSlash("/mod/main.go"), "main.go"},
		{filepath.FromSlash("/elsewhere/x.go"), "/elsewhere/x.go"},
	}
	for _, tc := range cases {
		if got := moduleRel(root, tc.in); got != tc.want {
			t.Errorf("moduleRel(%q, %q) = %q, want %q", root, tc.in, got, tc.want)
		}
	}
}

// TestJSONOutputShape runs the real CLI path with -json over a clean
// package and checks the output is a decodable array (never null), so
// CI consumers can always iterate it.
func TestJSONOutputShape(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "lint-out-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if code := run([]string{"-json", "-checks", "maporder", "./internal/sim"}, tmp, os.Stderr); code != 0 {
		t.Fatalf("lint exited %d, want 0", code)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) == "null" {
		t.Fatal("-json emitted null instead of an empty array")
	}
	var diags []jsonDiag
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("output is not a jsonDiag array: %v\n%s", err, data)
	}
	if len(diags) != 0 {
		t.Errorf("unexpected findings in internal/sim: %v", diags)
	}
}

// TestArchitectureCheckTable keeps the check table in ARCHITECTURE.md's
// "Static analysis" section naming exactly the checks the suite runs.
func TestArchitectureCheckTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Static analysis\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "## Static analysis" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	var suite []string
	for _, a := range analysis.Analyzers() {
		suite = append(suite, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(suite)
	if !slices.Equal(documented, suite) {
		t.Errorf("ARCHITECTURE.md check table lists %v, analysis.Analyzers() has %v", documented, suite)
	}
}

// Command lint runs the repo's determinism-and-correctness analyzers
// (internal/analysis) over the module: eight checks (maporder,
// wallclock, errcompare, lockdiscipline, metricsdiscipline, lockorder,
// detflow, leakcheck), each run once over one whole-module program —
// its packages, its functions and the call graph the last three
// follow. It is part of tier-1 verify via `make lint`.
//
// Usage:
//
//	lint [flags] [packages]
//
// Packages are directory patterns relative to the module root;
// "./..." (the default) walks every package. Diagnostics print as
//
//	path:line:col: [check] message
//
// and the exit status is 1 when there are findings, 2 on load or
// usage errors, 0 otherwise.
//
// With -json, diagnostics emit as a JSON array of objects with stable
// fields {file, line, column, check, message}, where file is the
// module-root-relative slash-separated path — independent of the
// working directory, so CI annotation does not break when the tool is
// invoked from a subdirectory.
//
// Flags:
//
//	-checks maporder,lockorder   run only the named checks
//	-json                        emit diagnostics as a JSON array
//	-ignores                     print the //lint:ignore inventory and exit
//	-list                        print the available checks and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"autoindex/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit diagnostics as JSON")
	ignoresFlag := fs.Bool("ignores", false, "print the //lint:ignore inventory and exit")
	listFlag := fs.Bool("list", false, "print the available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.Analyzers()
	if *checksFlag != "" {
		analyzers = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "lint: unknown check %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "lint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "lint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	units, err := loader.LoadUnits(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "lint:", err)
		return 2
	}

	if *ignoresFlag {
		for _, ig := range analysis.Inventory(units) {
			fmt.Fprintf(stdout, "%s:%d: [%s] %s\n",
				relPath(ig.Pos.Filename), ig.Pos.Line, strings.Join(ig.Checks, ","), ig.Reason)
		}
		return 0
	}

	diags := analysis.Run(units, analyzers)
	if *jsonFlag {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{moduleRel(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// jsonDiag is the -json output record. The field set is a stable
// contract for CI annotation: file (module-root-relative, slash
// separated), line, column (both 1-based), check, message.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// relPath renders p relative to the working directory for human
// output; paths outside it stay absolute.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

// moduleRel renders p relative to the module root with forward
// slashes, so -json output is identical no matter where lint runs
// from.
func moduleRel(root, p string) string {
	if rel, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(p)
}

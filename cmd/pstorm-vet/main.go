// Command pstorm-vet runs the project's static analysis suite
// (internal/analysis) over the module: the determinism, durability,
// concurrency, and tenancy invariants PStorM's profile store depends
// on, enforced by tooling instead of reviewer memory.
//
// Usage:
//
//	pstorm-vet [-list] [-checker name,...] [-json] [packages]
//
// Package patterns are module-relative: "./..." (the default) checks
// every non-test package; "./internal/hstore" or
// "pstorm/internal/hstore" restricts the report to matching packages
// (the whole module is still loaded, since some checks are
// cross-package). An argument naming a directory under a testdata
// tree — which the module walk skips — is loaded and vetted on its
// own, so the checker fixtures can be exercised directly:
//
//	pstorm-vet internal/analysis/testdata/src/clockfix
//
// -checker runs a subset of the suite (comma-separated names; see
// -list) while iterating on one checker. -json emits a machine-
// readable report.
//
// Exits 1 when findings remain, 2 on load errors.
//
// Justified exceptions are annotated in the source on the finding's
// line or the line above:
//
//	//pstorm:allow <checker> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pstorm/internal/analysis"
)

type report struct {
	Findings []analysis.Finding `json:"findings"`
}

func main() {
	list := flag.Bool("list", false, "list checkers and exit")
	checkerFlag := flag.String("checker", "", "comma-separated checker names to run (default: the full suite)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Parse()
	if *list {
		for _, c := range analysis.Checkers() {
			fmt.Printf("%-12s %s\n", c.Name(), c.Doc())
		}
		return
	}

	var checkers []analysis.Checker // nil = full suite
	if *checkerFlag != "" {
		for _, name := range strings.Split(*checkerFlag, ",") {
			name = strings.TrimSpace(name)
			c := analysis.CheckerByName(name)
			if c == nil {
				fatal(fmt.Errorf("unknown checker %q (see -list)", name))
			}
			checkers = append(checkers, c)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	var fixtureDirs, patterns []string
	for _, a := range flag.Args() {
		if isTestdataDir(a) {
			fixtureDirs = append(fixtureDirs, a)
		} else {
			patterns = append(patterns, a)
		}
	}

	var out report
	for _, dir := range fixtureDirs {
		pkg, err := loader.LoadDir(dir, "fixture/"+filepath.Base(dir))
		if err != nil {
			fatal(err)
		}
		out.Findings = append(out.Findings, analysis.Run([]*analysis.Package{pkg}, checkers)...)
	}

	if len(patterns) > 0 || len(fixtureDirs) == 0 {
		pkgs, err := loader.LoadModule()
		if err != nil {
			fatal(err)
		}
		for _, f := range analysis.Run(pkgs, checkers) {
			// No pattern means "./...": every package.
			if len(patterns) == 0 || matchesAny(f.Pos.Filename, loader.ModPath, pkgs, patterns) {
				out.Findings = append(out.Findings, f)
			}
		}
	}

	if *jsonOut {
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range out.Findings {
			fmt.Println(f)
		}
	}
	if n := len(out.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "pstorm-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// isTestdataDir reports whether the argument names an existing
// directory inside a testdata tree (which LoadModule skips and the
// pattern matcher therefore cannot reach).
func isTestdataDir(arg string) bool {
	fi, err := os.Stat(arg)
	if err != nil || !fi.IsDir() {
		return false
	}
	for _, part := range strings.Split(filepath.ToSlash(filepath.Clean(arg)), "/") {
		if part == "testdata" {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pstorm-vet:", err)
	os.Exit(2)
}

// matchesAny reports whether the file holding a finding belongs to a
// package selected by the patterns.
func matchesAny(filename, modPath string, pkgs []*analysis.Package, patterns []string) bool {
	var pkgPath string
	for _, p := range pkgs {
		if strings.HasPrefix(filename, p.Dir+string(os.PathSeparator)) {
			pkgPath = p.Path
			break
		}
	}
	for _, pat := range patterns {
		if matchPattern(pkgPath, modPath, pat) {
			return true
		}
	}
	return false
}

// matchPattern interprets one go-style package pattern against an
// import path. "./x" is relative to the module root.
func matchPattern(pkgPath, modPath, pat string) bool {
	pat = strings.TrimSuffix(pat, "/")
	if pat == "./..." || pat == "..." || pat == "all" {
		return true
	}
	if rest, ok := strings.CutPrefix(pat, "./"); ok {
		pat = modPath + "/" + rest
	} else if pat == "." {
		pat = modPath
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pkgPath == pat
}

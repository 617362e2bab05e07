// Command detlint statically enforces vinfra's determinism contract: all
// randomness is a pure hash of (seed, round, node/cell) through
// internal/det, no wall-clock value reaches deterministic code, no
// map-iteration order reaches ordered output, and the canonical wire-codec
// surface stays closed. See the analyzers package for the five rules
// (globalrand, walltime, maporder, wirecomplete, seedflow) and the
// //detlint:<rule> annotation grammar in internal/analysis.
//
// Two modes:
//
//	detlint [packages]      standalone: loads packages via `go list` from
//	                        the current directory (default pattern ./...)
//	                        and prints findings; exit 1 if any.
//	go vet -vettool=$(...)  unitchecker: invoked by the go command with a
//	                        *.cfg file per package; speaks cmd/go's vet
//	                        tool protocol (-V=full handshake, vetx output,
//	                        exit 2 on findings).
//
// detlint is intentionally repository-specific: the package policy below
// hardcodes which vinfra packages are deterministic. The analyzers
// themselves are generic.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"vinfra/tools/detlint/analyzers"
	"vinfra/tools/detlint/internal/analysis"
	"vinfra/tools/detlint/internal/load"
)

const version = "v1.0.0"

func main() {
	vFlag := flag.String("V", "", "print version and exit (go vet tool-ID handshake)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet flag probe)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [packages]\n       go vet -vettool=detlint ./...\n\nAnalyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *vFlag != "" {
		// cmd/go's toolID handshake: `<name> version <version>` with a
		// non-"devel" version is accepted for a -vettool.
		fmt.Printf("detlint version %s\n", version)
		return
	}
	if *flagsFlag {
		// cmd/go probes the vettool's analyzer flags as JSON before the
		// first package run. detlint exposes none.
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetMode(args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args))
}

// analyzersFor is the package policy: which analyzers run on which vinfra
// packages. Test files never reach the analyzers (the drivers filter them),
// so this decides non-test code only.
func analyzersFor(importPath string) []*analysis.Analyzer {
	if importPath != "vinfra" && !strings.HasPrefix(importPath, "vinfra/") {
		return nil // not this repository's module (e.g. detlint itself)
	}
	if strings.HasSuffix(importPath, ".test") {
		return nil // synthesized test-main packages
	}
	// maporder and wirecomplete hold everywhere: ordered output and the
	// codec surface matter in cmd/ too.
	list := []*analysis.Analyzer{analyzers.MapOrder, analyzers.WireComplete}
	deterministic := importPath == "vinfra" || strings.HasPrefix(importPath, "vinfra/internal/")
	if deterministic {
		list = append(list, analyzers.GlobalRand, analyzers.SeedFlow)
		// internal/service is wall-clock service code (stepping rates,
		// graceful shutdown); every other deterministic package must not
		// read the clock.
		if importPath != "vinfra/internal/service" {
			list = append(list, analyzers.WallTime)
		}
	}
	return list
}

// finding is one rendered diagnostic.
type finding struct {
	pos      token.Position
	analyzer string
	message  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.pos, f.analyzer, f.message)
}

// runPackage applies the policy's analyzers to one loaded package.
func runPackage(pkg *load.Package, fset *token.FileSet) []finding {
	as := analyzersFor(pkg.ImportPath)
	if len(as) == 0 {
		return nil
	}
	annot := analysis.ParseAnnotations(fset, pkg.Syntax)
	var out []finding
	// A typo'd annotation silently exempts nothing; surface it.
	for _, d := range annot.Bad {
		out = append(out, finding{fset.Position(d.Pos), "annotation", d.Message})
	}
	for _, a := range as {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Annot:     annot,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, finding{fset.Position(d.Pos), name, d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			out = append(out, finding{fset.Position(token.NoPos), name, "analyzer error: " + err.Error()})
		}
	}
	return out
}

func standalone(patterns []string) int {
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 1
	}
	// go list's GoFiles never include test files, so no filtering is
	// needed here (unlike vet mode, where cfg.GoFiles may).
	var all []finding
	for _, pkg := range pkgs {
		all = append(all, runPackage(pkg, pkg.Fset)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range all {
		fmt.Println(f)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// Command simlint runs the determinism-and-safety analyzer bank
// (internal/analysis) over Go package patterns and fails on any
// unsuppressed finding. It is the mechanical enforcement of the
// simulator's byte-identity contract: run-to-run, machine-to-machine and
// at any runner parallelism, a figure row must be a pure function of its
// trial seed.
//
// Usage:
//
//	go run ./cmd/simlint ./...          # lint the whole tree (CI mode)
//	go run ./cmd/simlint -list          # show registered analyzers
//	go run ./cmd/simlint -C dir ./...   # lint another module
//
// Findings print as file:line:col: message (analyzer). A finding is
// waived only by a reasoned suppression comment on (or directly above)
// the offending line:
//
//	//simlint:<analyzer> <reason>
//
// Reasonless suppressions, and suppressions naming an unknown analyzer,
// are findings themselves. Exit status: 0 clean, 1 findings, 2 errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/daiet/daiet/internal/analysis"
	"github.com/daiet/daiet/internal/analysis/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// analyzers is the bank this driver wires in; it must cover the full
// registry (cmd/simlint's wiring test asserts it).
func analyzers() []*framework.Analyzer {
	return analysis.Analyzers()
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(errw)
	list := fs.Bool("list", false, "print registered analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns in")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bank := analyzers()
	if *list {
		for _, a := range bank {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := framework.ListPackages(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(errw, "simlint: %v\n", err)
		return 2
	}
	known := map[string]bool{}
	for _, name := range analysis.Names() {
		known[name] = true
	}
	cwd, _ := os.Getwd()
	loader := framework.NewLoader()
	findings := 0
	for _, lp := range pkgs {
		units, err := loader.LoadListed(lp, true)
		if err != nil {
			fmt.Fprintf(errw, "simlint: %v\n", err)
			return 2
		}
		for _, unit := range units {
			diags, err := framework.RunAnalyzers(unit, bank, known)
			if err != nil {
				fmt.Fprintf(errw, "simlint: %v\n", err)
				return 2
			}
			for _, d := range diags {
				pos := d.Position
				if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && len(rel) < len(pos.Filename) {
					pos.Filename = rel
				}
				fmt.Fprintf(out, "%s:%d:%d: %s (%s)\n",
					pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
			}
			findings += len(diags)
		}
	}
	if findings > 0 {
		fmt.Fprintf(errw, "simlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// Command fairvet machine-checks the determinism invariants of the
// fairbench pipeline. It loads and type-checks the module once, runs the
// per-package rules (no wall clock, no global RNG, no map-order leaks
// into artifacts, no concurrency in event-loop packages, typed and
// %w-wrapped error sentinels), then builds an interprocedural call
// graph and runs the whole-program rules (nondeterminism laundered into
// the sim boundary through wrappers, RNG seeds that never derive from a
// parameter, allocations on //fairbench:hotpath-annotated paths, map
// order escaping through returns or struct fields into writers). See
// internal/vet for the rule catalog.
//
// Usage:
//
//	fairvet [-json] [-dir root] [packages...]
//
// Package patterns are module-relative ("./...", "./internal/sim",
// "./cmd/..."); the default is ./... . Exits 1 when findings remain
// after //fairlint:allow suppression, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fairbench/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	dir := fs.String("dir", "", "module root to analyze (default: nearest go.mod above the working directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fairvet [-json] [-dir root] [packages...]\nrules: %v\n", vet.KnownRules())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	findings, err := vet.Run(vet.Config{Dir: *dir, Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintln(stderr, "fairvet:", err)
		return 2
	}

	if *jsonOut {
		if err := vet.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "fairvet:", err)
			return 2
		}
	} else {
		if err := vet.WriteText(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "fairvet:", err)
			return 2
		}
		if len(findings) > 0 {
			fmt.Fprintf(stderr, "fairvet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

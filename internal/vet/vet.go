// Package vet implements fairvet, the static analyzer that
// machine-checks the determinism invariants the fairbench pipeline
// rests on. Every verdict this reproduction emits is only credible
// because the sim → testbed → verdict pipeline replays byte-identically
// from a seed. fairvet loads and type-checks the module once (go/parser
// + go/types, stdlib only), runs five per-package rules over the loaded
// packages, then builds an interprocedural call graph over the same
// packages and runs four whole-program rules on it:
//
//   - wallclock:  no time.Now/Since/Sleep outside allowlisted packages —
//     virtual time must come from the sim clock.
//   - globalrand: no global math/rand functions and no rand.New with an
//     opaque source — randomness flows through seeded internal/stats RNGs.
//   - maporder:   no map iteration that writes to an io.Writer or escapes
//     through an unsorted append — map order would leak into artifacts.
//   - simconc:    no goroutines, channels, or sync primitives inside the
//     sim boundary's single-threaded event-loop packages.
//   - errtype:    exported Err* variables are stable sentinels built with
//     errors.New (or a dedicated error type), and fmt.Errorf chains that
//     mention one wrap it with %w.
//   - taintreach: wall-clock reads, global math/rand draws, and
//     goroutine spawns reachable *transitively* from any function in the
//     sim boundary — the wrapper loophole no per-package rule can see
//     (`func now() time.Time { return time.Now() }` in internal/runner,
//     called from internal/sim) — with the call chain as the hint.
//   - seedprov: every RNG construction (rand.New/NewSource family,
//     sim.NewRNG, stats.NewRNG) must take a seed that dataflows from a
//     parameter — a Spec field, a TrialSeed, an operator flag — never a
//     bare literal or package variable.
//   - hotalloc: functions annotated //fairbench:hotpath, and everything
//     they reach inside the hot-path scope, must satisfy an AST-level
//     allocation model (see hotAlloc).
//   - orderflow: map iteration order that escapes a function through a
//     return value or a struct field and reaches a writer in another
//     function — the flow maporder's intra-function check cannot see.
//
// Findings can be suppressed with a `//fairlint:allow <rule> <reason>`
// comment on the offending line or the line above; an allow with no
// reason, an unknown rule, or one that suppresses nothing is itself a
// finding (rule "allow", which cannot be suppressed).
package vet

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Rule identifiers, stable across releases; these are the names
// accepted by //fairlint:allow comments.
const (
	RuleWallclock  = "wallclock"
	RuleGlobalRand = "globalrand"
	RuleMapOrder   = "maporder"
	RuleSimConc    = "simconc"
	RuleErrType    = "errtype"
	RuleTaintReach = "taintreach"
	RuleSeedProv   = "seedprov"
	RuleHotAlloc   = "hotalloc"
	RuleOrderFlow  = "orderflow"
	// RuleAllow reports defective suppression comments. It is emitted by
	// the allow machinery itself and cannot be suppressed.
	RuleAllow = "allow"
)

// reportFunc is how rules surface findings; Run wires it to the
// finding accumulator.
type reportFunc func(pos token.Pos, rule, msg, hint string)

// rules is the rule table in run order: the per-package rules, then
// the whole-program rules over the call graph. Its names are exactly
// the rules a //fairlint:allow directive may name.
var rules = []struct {
	name  string
	check func(*graph, reportFunc)
}{
	{RuleWallclock, perPackage(wallclock)},
	{RuleGlobalRand, perPackage(globalrand)},
	{RuleMapOrder, perPackage(maporder)},
	{RuleSimConc, perPackage(simconc)},
	{RuleErrType, perPackage(errtype)},
	{RuleTaintReach, taintReach},
	{RuleSeedProv, seedProv},
	{RuleHotAlloc, hotAlloc},
	{RuleOrderFlow, orderFlow},
}

// KnownRules returns the suppressible rule names in sorted order.
func KnownRules() []string {
	names := make([]string, 0, len(rules))
	for _, r := range rules {
		names = append(names, r.name)
	}
	sort.Strings(names)
	return names
}

func isKnownRule(name string) bool {
	for _, r := range rules {
		if r.name == name {
			return true
		}
	}
	return false
}

// Finding is one determinism-invariant violation. File is relative to the
// analyzed module root (slash-separated) so output is machine-independent
// and byte-identical across runs.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
	Hint string `json:"hint,omitempty"`
}

// String renders a finding as "file:line:col: rule: msg (fix: hint)".
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Config selects what to analyze and where each rule applies. Zero-value
// fields take the documented defaults.
type Config struct {
	// Dir is the root of the tree to analyze. Defaults to the nearest
	// directory at or above the working directory holding a go.mod.
	Dir string
	// Patterns are package patterns relative to Dir: "./..." (everything),
	// "./sub/..." (a subtree), or "./sub" (one package). Defaults to ./...
	Patterns []string
	// WallclockAllow lists module-relative package dirs where wall-clock
	// time is legitimate (operational deadlines, not measurement).
	// Defaults to DefaultWallclockAllow.
	WallclockAllow []string
	// SimBoundary lists the package dirs whose code runs inside seeded,
	// replayed simulations: they must stay single-threaded (simconc) and
	// must not transitively reach nondeterminism (taintreach). Defaults
	// to DefaultSimBoundary.
	SimBoundary []string
	// HotpathScope lists the package dirs hot-path allocation checking
	// propagates through (rule hotalloc): an annotated function's
	// callees are checked when they live here. Defaults to
	// DefaultHotpathScope.
	HotpathScope []string
}

// DefaultWallclockAllow exempts the experiment runner, whose
// deadline/retry machinery legitimately needs wall time, and the
// telemetry package, whose entire purpose is recording wall-clock
// execution history outside the determinism surface. Command binaries
// are deliberately NOT allowlisted: each wall-clock use there must
// carry a //fairlint:allow with a recorded reason.
func DefaultWallclockAllow() []string { return []string{"internal/runner", "internal/telemetry"} }

// DefaultSimBoundary is the determinism boundary: the event-loop
// packages plus internal/workload, whose generators feed the simulated
// timeline packet by packet.
func DefaultSimBoundary() []string {
	return []string{
		"internal/sim",
		"internal/hw",
		"internal/measure",
		"internal/fault",
		"internal/nf",
		"internal/workload",
	}
}

// DefaultHotpathScope is where hotalloc findings propagate: the sim
// boundary plus internal/packet, whose parser is on the per-packet
// fast path of every deployment.
func DefaultHotpathScope() []string {
	return append(DefaultSimBoundary(), "internal/packet")
}

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		dir, err := moduleRoot()
		if err != nil {
			return err
		}
		c.Dir = dir
	}
	if len(c.Patterns) == 0 {
		c.Patterns = []string{"./..."}
	}
	if c.WallclockAllow == nil {
		c.WallclockAllow = DefaultWallclockAllow()
	}
	if c.SimBoundary == nil {
		c.SimBoundary = DefaultSimBoundary()
	}
	if c.HotpathScope == nil {
		c.HotpathScope = DefaultHotpathScope()
	}
	return nil
}

// Run loads every package matched by cfg.Patterns under cfg.Dir, runs
// every rule, applies //fairlint:allow suppressions, and returns
// findings sorted by (file, line, col, rule, msg). The process working
// directory must be inside a Go module for module-internal imports to
// resolve (the stdlib source importer shells out to the go command).
func Run(cfg Config) ([]Finding, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	pkgs, fset, err := load(&cfg)
	if err != nil {
		return nil, err
	}
	g := buildGraph(&cfg, pkgs, fset)

	var findings []Finding
	report := func(pos token.Pos, rule, msg, hint string) {
		position := fset.Position(pos)
		findings = append(findings, Finding{
			File: relFile(cfg.Dir, position.Filename),
			Line: position.Line,
			Col:  position.Column,
			Rule: rule,
			Msg:  msg,
			Hint: hint,
		})
	}
	for _, r := range rules {
		r.check(g, report)
	}

	var allows []*allowDirective
	for _, pkg := range pkgs {
		allows = append(allows, collectAllows(fset, cfg.Dir, pkg.files)...)
	}
	findings = applyAllows(findings, allows)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Msg != b.Msg {
			return a.Msg < b.Msg
		}
		return a.Hint < b.Hint
	})
	return findings, nil
}

// applyAllows drops findings covered by a matching //fairlint:allow on
// the same line or the line above, then appends RuleAllow findings for
// defective directives (unknown rule, missing reason, suppresses
// nothing).
func applyAllows(findings []Finding, allows []*allowDirective) []Finding {
	idx := map[string]map[int]*allowDirective{} // file -> line -> directive
	for _, a := range allows {
		if idx[a.file] == nil {
			idx[a.file] = map[int]*allowDirective{}
		}
		idx[a.file][a.line] = a
	}
	kept := findings[:0]
	for _, f := range findings {
		if a := idx[f.File][f.Line]; a != nil && a.rule == f.Rule {
			a.used = true
			continue
		}
		if a := idx[f.File][f.Line-1]; a != nil && a.rule == f.Rule {
			a.used = true
			continue
		}
		kept = append(kept, f)
	}
	for _, a := range allows {
		switch {
		case !isKnownRule(a.rule):
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  fmt.Sprintf("fairlint:allow names unknown rule %q", a.rule),
				Hint: "known rules: " + strings.Join(KnownRules(), ", "),
			})
		case a.reason == "":
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.rule + " has no reason",
				Hint: "state why the invariant may be broken here: //fairlint:allow " + a.rule + " <reason>",
			})
		case !a.used:
			kept = append(kept, Finding{
				File: a.file, Line: a.line, Col: a.col, Rule: RuleAllow,
				Msg:  "fairlint:allow " + a.rule + " suppresses nothing",
				Hint: "delete the stale suppression",
			})
		}
	}
	return kept
}

// WriteText renders findings one per line in "file:line:col: rule: msg"
// form. Output is deterministic because findings arrive sorted.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as a JSON array (never null) followed by a
// newline. Field order and formatting are fixed, so equal findings always
// produce byte-identical output.
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

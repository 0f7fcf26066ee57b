package vet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases lists every corpus with the config it runs under; each
// runs under the full rule set. hotalloc pins HotpathScope to the
// corpus package itself so propagation from the annotated root is
// exercised.
var goldenCases = []struct {
	name string
	cfg  Config
}{
	{"wallclock", Config{}},
	{"globalrand", Config{}},
	{"maporder", Config{}},
	{"simconc", Config{}},
	{"errtype", Config{}},
	{"taintreach", Config{}},
	{"seedprov", Config{}},
	{"hotalloc", Config{HotpathScope: []string{"."}}},
	{"orderflow", Config{}},
	{"allowmeta", Config{}},
}

// perPackageRules are the rules that look at one package at a time; the
// loophole tests below prove they are blind to what the whole-program
// rules catch.
var perPackageRules = map[string]bool{
	RuleWallclock: true, RuleGlobalRand: true, RuleMapOrder: true, RuleSimConc: true, RuleErrType: true,
}

// ruleFamilies name the groups the per-family subtests split on: the
// five per-package rules, the four whole-program rules, and the allow
// meta-rule that polices suppressions for both.
var ruleFamilies = []string{"perpackage", "wholeprogram", "allow"}

// ruleFamily returns rule's family, or "" for a name that is no rule
// (such as the allowmeta corpus).
func ruleFamily(rule string) string {
	switch {
	case rule == RuleAllow:
		return "allow"
	case perPackageRules[rule]:
		return "perpackage"
	case isKnownRule(rule):
		return "wholeprogram"
	}
	return ""
}

func runCorpus(t *testing.T, name string, cfg Config) []Finding {
	t.Helper()
	cfg.Dir = filepath.Join("testdata", name)
	findings, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return findings
}

// TestAnalyzerGoldens runs each corpus (positive, negative, and
// suppressed cases) and asserts the exact findings — positions,
// messages, and fix hints — against its expect.txt golden.
func TestAnalyzerGoldens(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteText(&buf, runCorpus(t, c.name, c.cfg)); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.name, "expect.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldensCoverEveryRule guards the corpus itself: each rule must
// have at least one positive case, so a rule silently going dead fails
// here rather than in production.
func TestGoldensCoverEveryRule(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range goldenCases {
		data, err := os.ReadFile(filepath.Join("testdata", c.name, "expect.txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			parts := strings.SplitN(line, ": ", 3)
			if len(parts) >= 2 {
				seen[parts[1]] = true
			}
		}
	}
	for _, family := range ruleFamilies {
		t.Run(family, func(t *testing.T) {
			for _, rule := range append(KnownRules(), RuleAllow) {
				if ruleFamily(rule) == family && !seen[rule] {
					t.Errorf("no golden case exercises rule %s", rule)
				}
			}
		})
	}
}

// TestWrapperLaunderingInvisibleToFairlint pins why the whole-program
// rules exist: on the taintreach corpus, the per-package rules report
// NOTHING in the sim boundary package (the wall clock sits in
// internal/runner, which wallclock allowlists, and per-package analysis
// cannot connect the wrapper to its boundary caller), while taintreach
// reports every laundered source with a call chain.
func TestWrapperLaunderingInvisibleToFairlint(t *testing.T) {
	kinds := map[string]bool{}
	for _, f := range runCorpus(t, "taintreach", Config{}) {
		if !strings.HasPrefix(f.File, "internal/sim/") {
			continue
		}
		if perPackageRules[f.Rule] {
			t.Errorf("per-package rule unexpectedly sees the boundary violation (corpus no longer proves the loophole): %s", f)
		}
		if f.Rule != RuleTaintReach {
			continue
		}
		switch {
		case strings.Contains(f.Msg, "wall clock"):
			kinds["wallclock"] = true
		case strings.Contains(f.Msg, "math/rand"):
			kinds["globalrand"] = true
		case strings.Contains(f.Msg, "goroutine"):
			kinds["goroutine"] = true
		}
		if !strings.Contains(f.Hint, "call chain: ") {
			t.Errorf("taintreach finding lacks a call chain: %s", f)
		}
	}
	for _, k := range []string{"wallclock", "globalrand", "goroutine"} {
		if !kinds[k] {
			t.Errorf("taintreach missed the laundered %s source", k)
		}
	}
}

// TestFieldEscapeInvisibleToFairlint pins the second loophole: a map
// range appending to a struct field (a selector, not a plain
// identifier) escapes the per-package maporder rule entirely, while
// orderflow tracks it to the writer in another method.
func TestFieldEscapeInvisibleToFairlint(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "orderflow", "case.go"))
	if err != nil {
		t.Fatal(err)
	}
	appendLine := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "r.names = append(") {
			appendLine = i + 1
			break
		}
	}
	if appendLine == 0 {
		t.Fatal("corpus lost its selector-append case")
	}

	sawField := false
	for _, f := range runCorpus(t, "orderflow", Config{}) {
		if perPackageRules[f.Rule] && (f.Line == appendLine || strings.Contains(f.Msg, "names")) {
			t.Errorf("per-package rule unexpectedly sees the field escape (corpus no longer proves the loophole): %s", f)
		}
		if f.Rule == RuleOrderFlow && strings.Contains(f.Msg, "via field") {
			sawField = true
		}
	}
	if !sawField {
		t.Error("orderflow missed the field-carried order escape")
	}
}

// TestSuppressedFindingsStaySuppressed pins the allow semantics: every
// rule's corpus may contain suppressed positives (same-line and
// line-above allows), and none may resurface, nor may the suppression
// itself be flagged. It runs one subtest per rule family; the allowmeta
// corpus belongs to none, since its RuleAllow findings are the point.
func TestSuppressedFindingsStaySuppressed(t *testing.T) {
	for _, family := range []string{"perpackage", "wholeprogram"} {
		t.Run(family, func(t *testing.T) {
			for _, c := range goldenCases {
				if ruleFamily(c.name) != family {
					continue
				}
				for _, f := range runCorpus(t, c.name, c.cfg) {
					if f.Rule == RuleAllow {
						t.Errorf("%s corpus: allow machinery flagged a working suppression: %s", c.name, f)
					}
				}
			}
		})
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text, rule, reason string
		ok                 bool
	}{
		{"//fairlint:allow wallclock operator log only", "wallclock", "operator log only", true},
		{"//fairlint:allow wallclock", "wallclock", "", true},
		{"//fairlint:allow", "", "", true},
		{"//fairlint:allow  maporder   spaced   out  ", "maporder", "spaced out", true},
		{"//fairlint:allowwallclock smushed", "", "", false},
		{"// fairlint:allow wallclock spaced directive is not a directive", "", "", false},
		{"// ordinary comment", "", "", false},
		{"//fairlint:deny wallclock", "", "", false},
	}
	for _, c := range cases {
		rule, reason, ok := ParseAllow(c.text)
		if rule != c.rule || reason != c.reason || ok != c.ok {
			t.Errorf("ParseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, rule, reason, ok, c.rule, c.reason, c.ok)
		}
	}
}

func TestParseHotpath(t *testing.T) {
	cases := []struct {
		text, note string
		ok         bool
	}{
		{"//fairbench:hotpath", "", true},
		{"//fairbench:hotpath fairbench case packet-parse", "fairbench case packet-parse", true},
		{"//fairbench:hotpath   spaced   note  ", "spaced note", true},
		{"//fairbench:hotpath\tnote", "note", true},
		{"//fairbench:hotpathology", "", false},
		{"// fairbench:hotpath spaced marker is not a directive", "", false},
		{"//fairbench:coldpath", "", false},
		{"// ordinary comment", "", false},
	}
	for _, c := range cases {
		note, ok := ParseHotpath(c.text)
		if note != c.note || ok != c.ok {
			t.Errorf("ParseHotpath(%q) = (%q, %v), want (%q, %v)", c.text, note, ok, c.note, c.ok)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{".", "./...", true},
		{"internal/sim", "./...", true},
		{"internal/sim", "./internal/...", true},
		{"internal/sim", "internal/...", true},
		{"internal/sim", "./internal/sim", true},
		{"internal/simulator", "./internal/sim", false},
		{"internal/simulator", "./internal/sim/...", false},
		{"internal/sim/sub", "./internal/sim/...", true},
		{".", ".", true},
		{"cmd/fairsim", ".", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}

// TestWriteJSONShape pins the empty-findings encoding: an empty array
// (never null) with a trailing newline, so CI diffs and the
// byte-identity guarantee are stable.
func TestWriteJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("WriteJSON(nil) = %q, want %q", got, "[]\n")
	}
}

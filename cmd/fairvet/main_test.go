package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// families splits each fixture by rule family: perpackage holds the
// per-package rules' case, wholeprogram the whole-program rules' case,
// and all runs both packages in one load. In the dirty fixture each
// family has exactly one violation, so either family alone must fail
// the run.
var families = []struct {
	name, pattern string
	findings      []string // dirty-fixture findings, in output order
	rules         []string // their rules, in the same order
}{
	{"perpackage", "./perpackage",
		[]string{"perpackage/bad.go:8:14: wallclock"},
		[]string{"wallclock"}},
	{"wholeprogram", "./wholeprogram",
		[]string{"wholeprogram/bad.go:8:33: seedprov"},
		[]string{"seedprov"}},
	{"all", "./...",
		[]string{"perpackage/bad.go:8:14: wallclock", "wholeprogram/bad.go:8:33: seedprov"},
		[]string{"wallclock", "seedprov"}},
}

func TestCleanTreeExitsZero(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run([]string{"-dir", "testdata/clean", fam.pattern}, &out, &errBuf); code != 0 {
				t.Fatalf("exit = %d, stderr: %s, stdout: %s", code, errBuf.String(), out.String())
			}
			if out.Len() != 0 {
				t.Errorf("clean tree produced output: %s", out.String())
			}
		})
	}
}

func TestFindingsExitNonzero(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run([]string{"-dir", "testdata/dirty", fam.pattern}, &out, &errBuf); code != 1 {
				t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errBuf.String())
			}
			for _, want := range fam.findings {
				if !strings.Contains(out.String(), want) {
					t.Errorf("finding %q not reported: %s", want, out.String())
				}
			}
			if want := fmt.Sprintf("%d finding(s)", len(fam.findings)); !strings.Contains(errBuf.String(), want) {
				t.Errorf("summary %q missing from stderr: %s", want, errBuf.String())
			}
		})
	}
}

func TestJSONOutputDeterministic(t *testing.T) {
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			render := func() string {
				var out, errBuf bytes.Buffer
				if code := run([]string{"-json", "-dir", "testdata/dirty", fam.pattern}, &out, &errBuf); code != 1 {
					t.Fatalf("exit = %d (stderr: %s)", code, errBuf.String())
				}
				return out.String()
			}
			first := render()
			var findings []map[string]any
			if err := json.Unmarshal([]byte(first), &findings); err != nil {
				t.Fatalf("output is not JSON: %v\n%s", err, first)
			}
			if len(findings) != len(fam.rules) {
				t.Fatalf("got %d findings, want %d: %s", len(findings), len(fam.rules), first)
			}
			for i, rule := range fam.rules {
				if findings[i]["rule"] != rule {
					t.Errorf("finding %d: rule = %v, want %s", i, findings[i]["rule"], rule)
				}
			}
			if second := render(); second != first {
				t.Errorf("-json output not byte-identical\n--- first ---\n%s--- second ---\n%s", first, second)
			}
		})
	}
}

func TestUsageErrorExitsTwo(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown_flag", []string{"-nonsense"}},
		{"flag_without_value", []string{"-dir"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errBuf bytes.Buffer
			if code := run(c.args, &out, &errBuf); code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
			if !strings.Contains(errBuf.String(), "usage: fairvet") {
				t.Errorf("usage missing: %s", errBuf.String())
			}
		})
	}
}

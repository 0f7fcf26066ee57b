package vet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fairbench/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestModuleSelfVet is fairvet's own acceptance gate: the whole module
// must be clean (every finding fixed or justified with an explained
// allow), and two independent whole-program runs must emit
// byte-identical JSON — call-graph construction, taint propagation,
// and fixpoint iteration may not leak map order or pointer identity
// into the output.
func TestModuleSelfVet(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	root := moduleRoot(t)
	run := func() ([]Finding, []byte) {
		findings, err := Run(Config{Dir: root, Patterns: []string{"./..."}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, findings); err != nil {
			t.Fatal(err)
		}
		return findings, buf.Bytes()
	}

	findings, first := run()
	for _, f := range findings {
		t.Errorf("tree not fairvet-clean: %s", f)
	}

	_, second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("fairvet -json is not byte-identical across runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestHotpathsAnnotated guards the annotation policy: every zero-alloc
// steady-state product function exercised by the benchmark suite must
// carry //fairbench:hotpath, so the static gate stays armed for the
// functions whose BENCH_baseline.json numbers claim zero allocations.
func TestHotpathsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	root := moduleRoot(t)
	want := map[string]bool{
		"internal/sim.(*Sim).At":                  false,
		"internal/sim.(*Sim).Run":                 false,
		"internal/sim.(*Sim).RunAll":              false,
		"internal/packet.(*Parser).Parse":         false,
		"internal/nf.(*LinearMatcher).Match":      false,
		"internal/nf.(*Firewall).Process":         false,
		"internal/nf.(*Conntrack).Process":        false,
		"internal/workload.(*ScenarioGen).NextAt": false,
		"internal/measure.(*Ledger).Offer":        false,
		"internal/measure.(*Ledger).Resolve":      false,
	}
	cfg := Config{Dir: root, Patterns: []string{"./..."}}
	cfg.fillDefaults()
	pkgs, fset, err := lint.Load(cfg.Dir, cfg.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(&cfg, pkgs, fset)
	for _, n := range g.nodes {
		if _, tracked := want[n.key]; tracked && n.hot {
			want[n.key] = true
		}
	}
	for key, hot := range want {
		if !hot {
			t.Errorf("%s lost its //fairbench:hotpath annotation", key)
		}
	}
}

package vet

import (
	"bytes"
	"testing"
)

// TestModuleSelfVet is fairvet's own acceptance gate: the whole module
// must be clean under every rule (each finding fixed or justified with
// an explained allow), and two independent runs must emit
// byte-identical JSON — loading, call-graph construction, taint
// propagation, and fixpoint iteration may not leak map order or pointer
// identity into the output; the analyzer cannot demand determinism it
// does not itself have.
func TestModuleSelfVet(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	run := func() ([]Finding, []byte) {
		findings, err := Run(Config{})
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
	_, second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("fairvet -json is not byte-identical across runs\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	// One subtest per rule family, so a dirty tree names the family at
	// fault.
	for _, f := range findings {
		if ruleFamily(f.Rule) == "" {
			t.Errorf("finding under no rule family: %s", f)
		}
	}
	for _, family := range ruleFamilies {
		t.Run(family, func(t *testing.T) {
			for _, f := range findings {
				if ruleFamily(f.Rule) == family {
					t.Errorf("tree not fairvet-clean: %s", f)
				}
			}
		})
	}
}

// TestHotpathsAnnotated guards the annotation policy: every per-packet
// or per-event product function exercised by the benchmark suite must
// carry //fairbench:hotpath, so the static allocation gate stays armed
// on them. The gate does not make them allocation-free: each allocation
// it knowingly tolerates carries an explained hotalloc allow (sim.At's
// per-event *event is one, measured as sim.allocs_per_event by fairperf).
func TestHotpathsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
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
	var cfg Config
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	pkgs, fset, err := load(&cfg)
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

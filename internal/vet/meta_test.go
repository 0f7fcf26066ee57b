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
// on them. hotalloc does not follow interface dispatch from the kernel
// or a device to a handler, so each handler the packet path reaches
// that way (a device's Fire, the testbed's arrival Fire and in-flight
// Complete) is a root of its own. The gate does not make them
// allocation-free: each allocation it knowingly tolerates — amortized
// growth of the event heap, the device completion rings and the
// in-flight record pool, and the generator's template cache — carries
// an explained hotalloc allow.
func TestHotpathsAnnotated(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is not short")
	}
	want := map[string]bool{
		"internal/sim.(*Sim).Schedule":            false,
		"internal/sim.(*Sim).At":                  false,
		"internal/sim.(*Sim).Run":                 false,
		"internal/sim.(*Sim).RunAll":              false,
		"internal/packet.(*Parser).Parse":         false,
		"internal/nf.(*LinearMatcher).Match":      false,
		"internal/nf.(*Firewall).Process":         false,
		"internal/nf.(*Conntrack).Process":        false,
		"internal/workload.(*Generator).Next":     false,
		"internal/workload.(*ScenarioGen).NextAt": false,
		"internal/measure.(*Ledger).Offer":        false,
		"internal/measure.(*Ledger).Resolve":      false,
		"internal/hw.(*Core).Fire":                false,
		"internal/hw.(*SmartNIC).Fire":            false,
		"internal/hw.(*FPGA).Fire":                false,
		"internal/testbed.(*Deployment).admit":    false,
		"internal/testbed.(*Deployment).dispatch": false,
		"internal/testbed.(*Deployment).hostPath": false,
		"internal/testbed.(*Deployment).acquire":  false,
		"internal/testbed.(*Deployment).release":  false,
		"internal/testbed.(*arrivals).Fire":       false,
		"internal/testbed.(*flight).Complete":     false,
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

package testbed

import (
	"runtime"
	"testing"

	"fairbench/internal/workload"
)

// TestRunAllocsPerPacket bounds heap allocations per offered packet on
// a whole run: the SmartNIC firewall under E6 traffic at 4 Mpps CBR,
// 125k packets over both the fast path and the host slow path. Every
// per-packet step — arrival, dispatch, device completion — reuses
// long-lived handlers and pooled records, so what remains is per-run
// setup and the amortized growth of pools, rings, meters and the
// generator's template cache; a closure allocated on any dispatch
// branch would add about one per packet.
func TestRunAllocsPerPacket(t *testing.T) {
	const pps, seconds, maxPerPkt = 4e6, 0.03125, 0.035
	d, err := SmartNICFirewall()
	if err != nil {
		t.Fatal(err)
	}
	g, err := E6Workload(1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := d.Run(g, workload.CBR{}, pps, seconds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	offered := res.Offered.Packets
	if offered < 100_000 {
		t.Fatalf("offered %d packets, want about 125k", offered)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(offered)
	t.Logf("%.4f allocations per offered packet", per)
	if per > maxPerPkt {
		t.Errorf("%.3f allocations per offered packet, want at most %v", per, maxPerPkt)
	}
}

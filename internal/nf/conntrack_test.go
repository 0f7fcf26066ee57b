package nf

import (
	"testing"

	"fairbench/internal/packet"
)

// ctRules allow TCP to 443 and UDP to 53 from anywhere benign, behind a
// realistic depth of filler rules (so the slow-path scan costs more
// than the established-flow hash lookup, as in production rule sets).
var ctRules = func() []Rule {
	rules := []Rule{{ID: 0, Src: pfx(10, 66, 0, 0, 16), Action: Drop}}
	for i := 0; i < 40; i++ {
		rules = append(rules, Rule{ID: 1 + i, Src: pfx(172, 20, byte(i), 0, 30), Action: Drop})
	}
	return append(rules,
		Rule{ID: 41, DstPorts: PortRange{443, 443}, Proto: packet.ProtoTCP, Action: Accept},
		Rule{ID: 42, DstPorts: PortRange{53, 53}, Proto: packet.ProtoUDP, Action: Accept},
	)
}()

func ctFlow(port uint16) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr4{10, 1, 0, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: port, DstPort: 443, Proto: packet.ProtoTCP,
	}
}

// sendTCP processes one crafted TCP packet through the conntrack.
func sendTCP(t *testing.T, c *Conntrack, ft packet.FiveTuple, flags packet.TCPFlags) Result {
	t.Helper()
	frame, err := packet.BuildTCP4(natOpts, ft, flags, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	if err := p.Parse(frame); err != nil {
		t.Fatal(err)
	}
	res, err := c.Process(p, frame)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConntrackHandshakeLifecycle(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	ft := ctFlow(40000)

	// SYN: new flow, slow path, accepted.
	res := sendTCP(t, c, ft, packet.FlagSYN)
	if res.Verdict != Accept {
		t.Fatalf("SYN verdict = %v", res.Verdict)
	}
	if s, ok := c.State(ft); !ok || s != StateNew {
		t.Fatalf("state after SYN = %v, %v", s, ok)
	}
	slowCycles := res.Cycles

	// SYN-ACK from the reverse direction: fast path (reverse lookup),
	// moves to established.
	res = sendTCP(t, c, ft.Reverse(), packet.FlagSYN|packet.FlagACK)
	if res.Verdict != Accept {
		t.Fatalf("SYN-ACK verdict = %v", res.Verdict)
	}
	if s, _ := c.State(ft); s != StateEstablished {
		t.Fatalf("state after SYN-ACK = %v", s)
	}
	if res.Cycles >= slowCycles {
		t.Errorf("fast path (%d cycles) should be cheaper than slow path (%d)", res.Cycles, slowCycles)
	}

	// Data packets in both directions stay established.
	sendTCP(t, c, ft, packet.FlagACK|packet.FlagPSH)
	if s, _ := c.State(ft); s != StateEstablished {
		t.Fatal("data packet should not change established state")
	}

	// FIN both ways closes and removes the entry.
	sendTCP(t, c, ft, packet.FlagFIN|packet.FlagACK)
	if s, _ := c.State(ft); s != StateClosing {
		t.Fatalf("state after first FIN = %v", s)
	}
	sendTCP(t, c, ft.Reverse(), packet.FlagFIN|packet.FlagACK)
	if _, ok := c.State(ft); ok {
		t.Fatal("connection should be removed after both FINs")
	}
	if c.Entries() != 0 {
		t.Errorf("entries = %d", c.Entries())
	}
}

func TestConntrackRSTTearsDown(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	ft := ctFlow(40001)
	sendTCP(t, c, ft, packet.FlagSYN)
	sendTCP(t, c, ft, packet.FlagRST)
	if _, ok := c.State(ft); ok {
		t.Fatal("RST should remove the connection")
	}
}

// TestConntrackReverseTrafficRefreshesRecency keeps one connection
// alive only with reverse-direction packets while fresh SYNs push an
// LRU-managed table past capacity: the reverse packets must refresh the
// entry stored under the forward key, so it is never the victim.
func TestConntrackReverseTrafficRefreshesRecency(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules), ConntrackConfig{MaxEntries: 3, Policy: EvictLRU})
	kept := ctFlow(41000)
	sendTCP(t, c, kept, packet.FlagSYN)
	for i := uint16(0); i < 20; i++ {
		if res := sendTCP(t, c, kept.Reverse(), packet.FlagACK); res.Verdict != Accept {
			t.Fatalf("round %d: reverse ACK verdict = %v", i, res.Verdict)
		}
		sendTCP(t, c, ctFlow(42000+i), packet.FlagSYN)
		if _, ok := c.table.Get(kept); !ok {
			t.Fatalf("round %d: the reverse-refreshed connection was evicted", i)
		}
	}
	if c.Evicted() == 0 {
		t.Fatal("the table never came under pressure")
	}
}

// TestConntrackReverseTeardown checks that FIN and RST from the
// responder advance or remove the entry stored under the initiator's
// key.
func TestConntrackReverseTeardown(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	ft := ctFlow(41001)
	sendTCP(t, c, ft, packet.FlagSYN)
	sendTCP(t, c, ft.Reverse(), packet.FlagSYN|packet.FlagACK)
	sendTCP(t, c, ft.Reverse(), packet.FlagFIN|packet.FlagACK)
	if v, ok := c.table.Get(ft); !ok || ConnState(v) != StateClosing {
		t.Fatalf("forward entry after reverse FIN = %v, %v; want closing", ConnState(v), ok)
	}
	if _, ok := c.table.Get(ft.Reverse()); ok {
		t.Fatal("a reverse FIN must not store the reverse key")
	}
	sendTCP(t, c, ft, packet.FlagFIN|packet.FlagACK)
	if c.Entries() != 0 {
		t.Fatalf("entries after both FINs = %d", c.Entries())
	}

	rst := ctFlow(41002)
	sendTCP(t, c, rst, packet.FlagSYN)
	sendTCP(t, c, rst.Reverse(), packet.FlagRST)
	if _, ok := c.State(rst); ok || c.Entries() != 0 {
		t.Fatalf("reverse RST left the connection (entries %d)", c.Entries())
	}
}

func TestConntrackRejectsStrayMidConnection(t *testing.T) {
	// A bare ACK with no tracked state is dropped even though the rule
	// set would accept the 5-tuple — the stateful fail-closed posture.
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	res := sendTCP(t, c, ctFlow(40002), packet.FlagACK)
	if res.Verdict != Drop {
		t.Fatalf("stray ACK verdict = %v", res.Verdict)
	}
	if c.Entries() != 0 {
		t.Error("stray packet must not create state")
	}
}

func TestConntrackRespectsRules(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	// Blocklisted source: dropped on the slow path.
	bad := packet.FiveTuple{
		Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 1, DstPort: 443, Proto: packet.ProtoTCP,
	}
	res := sendTCP(t, c, bad, packet.FlagSYN)
	if res.Verdict != Drop {
		t.Fatalf("blocklisted SYN verdict = %v", res.Verdict)
	}
	// Unmatched port: dropped.
	odd := ctFlow(40003)
	odd.DstPort = 8080
	if res := sendTCP(t, c, odd, packet.FlagSYN); res.Verdict != Drop {
		t.Fatalf("unmatched-port SYN verdict = %v", res.Verdict)
	}
}

func TestConntrackTableLimit(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 2)
	sendTCP(t, c, ctFlow(1000), packet.FlagSYN)
	sendTCP(t, c, ctFlow(1001), packet.FlagSYN)
	res := sendTCP(t, c, ctFlow(1002), packet.FlagSYN)
	if res.Verdict != Drop {
		t.Fatalf("over-limit SYN verdict = %v", res.Verdict)
	}
	if c.TableFull != 1 {
		t.Errorf("TableFull = %d", c.TableFull)
	}
}

func TestConntrackUDPEstablishedOnFirstAccept(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 0)
	ft := packet.FiveTuple{
		Src: packet.Addr4{10, 1, 0, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 5000, DstPort: 53, Proto: packet.ProtoUDP,
	}
	frame, err := packet.BuildUDP4(natOpts, ft, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	p := packet.NewParser()
	_ = p.Parse(frame)
	res, err := c.Process(p, frame)
	if err != nil || res.Verdict != Accept {
		t.Fatalf("UDP first packet: %v %v", res.Verdict, err)
	}
	if s, ok := c.State(ft); !ok || s != StateEstablished {
		t.Fatalf("UDP state = %v, %v", s, ok)
	}
	// Reverse direction flows on the fast path.
	rev, _ := packet.BuildUDP4(natOpts, ft.Reverse(), []byte("answer"))
	_ = p.Parse(rev)
	res2, err := c.Process(p, rev)
	if err != nil || res2.Verdict != Accept {
		t.Fatalf("UDP reverse: %v %v", res2.Verdict, err)
	}
	if res2.Cycles != CyclesParse+CyclesConntrackHit {
		t.Errorf("reverse cycles = %d, want fast path", res2.Cycles)
	}
}

func TestConnStateString(t *testing.T) {
	if StateNew.String() != "new" || StateEstablished.String() != "established" ||
		StateClosing.String() != "closing" || ConnState(9).String() != "unknown" {
		t.Error("state names")
	}
}

func TestTokenBucketPolicing(t *testing.T) {
	clock := 0.0
	now := func() float64 { return clock }
	tb, err := NewTokenBucket("tb", 1000, 10, now)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := packet.BuildUDP4(natOpts, natFlow(1, packet.ProtoUDP), nil)
	p := packet.NewParser()
	_ = p.Parse(frame)

	// Burst of 10 conforms; the 11th at the same instant is policed.
	for i := 0; i < 10; i++ {
		res, _ := tb.Process(p, frame)
		if res.Verdict != Accept {
			t.Fatalf("packet %d policed within burst", i)
		}
	}
	res, _ := tb.Process(p, frame)
	if res.Verdict != Drop {
		t.Fatal("11th packet should be policed")
	}
	if tb.Conforming != 10 || tb.Policed != 1 {
		t.Errorf("counters = %d/%d", tb.Conforming, tb.Policed)
	}

	// After 5 ms at 1000 pps, 5 tokens refill.
	clock += 0.005
	for i := 0; i < 5; i++ {
		res, _ := tb.Process(p, frame)
		if res.Verdict != Accept {
			t.Fatalf("refilled packet %d policed", i)
		}
	}
	if res, _ := tb.Process(p, frame); res.Verdict != Drop {
		t.Fatal("bucket should be empty again")
	}

	// Refill never exceeds the burst.
	clock += 100
	if got := tb.Tokens(); got != 10 {
		t.Errorf("tokens = %v, want burst cap 10", got)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	now := func() float64 { return 0 }
	if _, err := NewTokenBucket("tb", 0, 10, now); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewTokenBucket("tb", 100, 0.5, now); err == nil {
		t.Error("burst < 1 should fail")
	}
	if _, err := NewTokenBucket("tb", 100, 10, nil); err == nil {
		t.Error("nil clock should fail")
	}
}

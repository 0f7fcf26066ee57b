package nf

import (
	"errors"
	"slices"
	"testing"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

func evFlow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.Addr4{10, 1, byte(i >> 8), byte(i)}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: uint16(1024 + i), DstPort: 443, Proto: packet.ProtoTCP,
	}
}

func TestFlowTableBasics(t *testing.T) {
	ft := NewFlowTable(4, EvictNone, 1)
	if ft.Cap() != 4 || ft.Len() != 0 {
		t.Fatalf("cap/len = %d/%d", ft.Cap(), ft.Len())
	}
	for i := 0; i < 4; i++ {
		if _, _, _, ok := ft.Put(evFlow(i), uint32(i)); !ok {
			t.Fatalf("insert %d refused below capacity", i)
		}
	}
	if v, ok := ft.Get(evFlow(2)); !ok || v != 2 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	// Full + EvictNone: refuse, no eviction.
	if _, _, evicted, ok := ft.Put(evFlow(9), 9); ok || evicted {
		t.Fatal("full EvictNone table must refuse without evicting")
	}
	// Updating an existing key is not an insert and always succeeds.
	if _, _, _, ok := ft.Put(evFlow(2), 22); !ok {
		t.Fatal("update of existing key refused")
	}
	if v, _ := ft.Get(evFlow(2)); v != 22 {
		t.Fatalf("updated value = %d", v)
	}
	if !ft.Delete(evFlow(0)) || ft.Delete(evFlow(0)) {
		t.Fatal("delete should succeed once")
	}
	if _, _, _, ok := ft.Put(evFlow(9), 9); !ok {
		t.Fatal("insert after delete should reuse the slot")
	}
	if ft.Len() != 4 {
		t.Fatalf("len = %d", ft.Len())
	}
}

func TestFlowTableLRUEvictsColdest(t *testing.T) {
	ft := NewFlowTable(3, EvictLRU, 1)
	for i := 0; i < 3; i++ {
		ft.Put(evFlow(i), uint32(i))
	}
	// Use 0 so 1 becomes the coldest.
	if v, ok := ft.Use(evFlow(0)); !ok || v != 0 {
		t.Fatalf("Use = %d, %v", v, ok)
	}
	victim, val, evicted, ok := ft.Put(evFlow(3), 3)
	if !ok || !evicted {
		t.Fatalf("evicting insert: evicted=%v ok=%v", evicted, ok)
	}
	if victim != evFlow(1) || val != 1 {
		t.Fatalf("victim = %v (val %d), want flow 1", victim, val)
	}
	if _, ok := ft.Get(evFlow(0)); !ok {
		t.Error("used entry evicted")
	}
	if ft.Evictions != 1 {
		t.Errorf("Evictions = %d", ft.Evictions)
	}
}

// refLRU is the reference model for an EvictLRU FlowTable: a slice of
// entries, most recently used first.
type refLRU struct {
	capacity int
	order    []ftEntry // only ft and val are used
}

func (r *refLRU) find(ft packet.FiveTuple) int {
	return slices.IndexFunc(r.order, func(e ftEntry) bool { return e.ft == ft })
}

func (r *refLRU) toFront(i int) {
	e := r.order[i]
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, e)
}

func (r *refLRU) put(ft packet.FiveTuple, v uint32) (victim packet.FiveTuple, victimVal uint32, evicted bool) {
	if i := r.find(ft); i >= 0 {
		r.order[i].val = v
		r.toFront(i)
		return victim, 0, false
	}
	if len(r.order) >= r.capacity {
		last := r.order[len(r.order)-1]
		r.order = r.order[:len(r.order)-1]
		victim, victimVal, evicted = last.ft, last.val, true
	}
	r.order = slices.Insert(r.order, 0, ftEntry{ft: ft, val: v})
	return victim, victimVal, evicted
}

func (r *refLRU) use(ft packet.FiveTuple) (uint32, bool) {
	i := r.find(ft)
	if i < 0 {
		return 0, false
	}
	r.toFront(i)
	return r.order[0].val, true
}

func (r *refLRU) get(ft packet.FiveTuple) (uint32, bool) {
	if i := r.find(ft); i >= 0 {
		return r.order[i].val, true
	}
	return 0, false
}

func (r *refLRU) set(ft packet.FiveTuple, v uint32) bool {
	i := r.find(ft)
	if i >= 0 {
		r.order[i].val = v
	}
	return i >= 0
}

func (r *refLRU) del(ft packet.FiveTuple) bool {
	i := r.find(ft)
	if i >= 0 {
		r.order = slices.Delete(r.order, i, i+1)
	}
	return i >= 0
}

// recency lists the table's keys, most recently used first.
func recency(t *FlowTable) []packet.FiveTuple {
	var out []packet.FiveTuple
	for s := t.head; s != noSlot; s = t.entries[s].next {
		out = append(out, t.entries[s].ft)
	}
	return out
}

// TestFlowTableUseMatchesReferenceLRU drives random Put/Use/Get/Set/
// Delete sequences through a full-ish EvictLRU table and a slice-based
// reference LRU: results, victims, values, Len and the whole recency
// order must agree after every step.
func TestFlowTableUseMatchesReferenceLRU(t *testing.T) {
	const capacity, keys, steps = 8, 14, 4000
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		tab := NewFlowTable(capacity, EvictLRU, seed)
		ref := &refLRU{capacity: capacity}
		for step := 0; step < steps; step++ {
			k := evFlow(rng.Intn(keys))
			v := uint32(rng.Intn(1000))
			op := rng.Intn(5)
			before := recency(tab)
			switch op {
			case 0:
				victim, victimVal, evicted, ok := tab.Put(k, v)
				rv, rvv, rev := ref.put(k, v)
				if !ok || evicted != rev || victim != rv || victimVal != rvv {
					t.Fatalf("seed %d step %d: Put = (%v, %d, %v, %v), reference (%v, %d, %v)",
						seed, step, victim, victimVal, evicted, ok, rv, rvv, rev)
				}
			case 1:
				got, ok := tab.Use(k)
				want, wok := ref.use(k)
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Use = %d, %v, reference %d, %v", seed, step, got, ok, want, wok)
				}
				if !ok && !slices.Equal(recency(tab), before) {
					t.Fatalf("seed %d step %d: a Use miss changed the recency order", seed, step)
				}
			case 2:
				got, ok := tab.Get(k)
				want, wok := ref.get(k)
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Get = %d, %v, reference %d, %v", seed, step, got, ok, want, wok)
				}
				if !slices.Equal(recency(tab), before) {
					t.Fatalf("seed %d step %d: Get changed the recency order", seed, step)
				}
			case 3:
				if got, want := tab.Set(k, v), ref.set(k, v); got != want {
					t.Fatalf("seed %d step %d: Set = %v, reference %v", seed, step, got, want)
				}
			case 4:
				if got, want := tab.Delete(k), ref.del(k); got != want {
					t.Fatalf("seed %d step %d: Delete = %v, reference %v", seed, step, got, want)
				}
			}
			if tab.Len() != len(ref.order) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, tab.Len(), len(ref.order))
			}
			order := recency(tab)
			for i, e := range ref.order {
				if order[i] != e.ft {
					t.Fatalf("seed %d step %d: recency[%d] = %v, reference %v", seed, step, i, order[i], e.ft)
				}
				if got, _ := tab.Get(e.ft); got != e.val {
					t.Fatalf("seed %d step %d: value of %v = %d, reference %d", seed, step, e.ft, got, e.val)
				}
			}
		}
	}
}

func TestFlowTableRandomEvictionDeterministic(t *testing.T) {
	run := func() []packet.FiveTuple {
		ft := NewFlowTable(8, EvictRandom, 42)
		var victims []packet.FiveTuple
		for i := 0; i < 64; i++ {
			if v, _, evicted, ok := ft.Put(evFlow(i), uint32(i)); ok && evicted {
				victims = append(victims, v)
			}
		}
		return victims
	}
	a, b := run(), run()
	if len(a) != 64-8 {
		t.Fatalf("evictions = %d, want %d", len(a), 64-8)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d differs across identically seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlowTableMemoryBounded(t *testing.T) {
	// A million distinct flows through a 512-entry table must not grow
	// the pool past the capacity — bounded state is the whole point.
	ft := NewFlowTable(512, EvictLRU, 7)
	for i := 0; i < 1_000_000; i++ {
		ft.Put(evFlow(i%65521), uint32(i))
	}
	if ft.Len() > 512 {
		t.Fatalf("len = %d > cap", ft.Len())
	}
	if got := len(ft.entries); got > 512 {
		t.Fatalf("entry pool grew to %d slots", got)
	}
}

func TestParseEvictPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EvictPolicy
	}{{"none", EvictNone}, {"random", EvictRandom}, {"lru", EvictLRU}} {
		got, err := ParseEvictPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEvictPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseEvictPolicy("fifo"); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestConntrackOverflowAttributed is the regression test for the
// silent-refusal bug: every packet arriving at a full fail-closed
// table must land in OverflowDrops (and Dropped), never vanish from
// the accounting.
func TestConntrackOverflowAttributed(t *testing.T) {
	c := NewConntrack("ct", NewLinearMatcher(ctRules), 4)
	const offered = 32
	for i := 0; i < offered; i++ {
		sendTCP(t, c, ctFlow(uint16(2000+i)), packet.FlagSYN)
	}
	st := c.Stats()
	if st.NewFlows != 4 {
		t.Errorf("NewFlows = %d, want 4", st.NewFlows)
	}
	if st.OverflowDrops != offered-4 {
		t.Errorf("OverflowDrops = %d, want %d", st.OverflowDrops, offered-4)
	}
	if st.Dropped < st.OverflowDrops {
		t.Errorf("OverflowDrops (%d) must be a subset of Dropped (%d)", st.OverflowDrops, st.Dropped)
	}
	// Conservation: every offered packet is attributed to exactly one
	// outcome counter.
	if got := st.NewFlows + st.FastPath + st.Dropped + st.SYNCookiesSent + st.CookieBypassed; got != offered {
		t.Errorf("outcome counters sum to %d, want %d offered", got, offered)
	}
	if st.TableFull != offered-4 {
		t.Errorf("TableFull = %d, want %d", st.TableFull, offered-4)
	}
}

func TestConntrackLRUEvictionAdmitsNewFlows(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 4, Policy: EvictLRU, Seed: 1})
	const offered = 12
	for i := 0; i < offered; i++ {
		res := sendTCP(t, c, ctFlow(uint16(3000+i)), packet.FlagSYN)
		if res.Verdict != Accept {
			t.Fatalf("flow %d refused despite eviction policy", i)
		}
	}
	st := c.Stats()
	if st.NewFlows != offered {
		t.Errorf("NewFlows = %d, want %d", st.NewFlows, offered)
	}
	if st.OverflowDrops != 0 {
		t.Errorf("OverflowDrops = %d with eviction on", st.OverflowDrops)
	}
	if st.Evicted != offered-4 {
		t.Errorf("Evicted = %d, want %d", st.Evicted, offered-4)
	}
	if st.Entries != 4 {
		t.Errorf("Entries = %d", st.Entries)
	}
}

func TestConntrackEvictionCollateralCountsEstablished(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 2, Policy: EvictLRU, Seed: 1})
	// Establish one connection fully.
	sendTCP(t, c, ctFlow(100), packet.FlagSYN)
	sendTCP(t, c, ctFlow(100).Reverse(), packet.FlagSYN|packet.FlagACK)
	// Two more SYNs evict the established flow (now the coldest) and
	// then one of the new ones — the first eviction is collateral
	// damage to a vetted connection.
	sendTCP(t, c, ctFlow(101), packet.FlagSYN)
	sendTCP(t, c, ctFlow(102), packet.FlagSYN)
	sendTCP(t, c, ctFlow(103), packet.FlagSYN)
	st := c.Stats()
	if st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
	if st.EvictedEstablished != 1 {
		t.Errorf("EvictedEstablished = %d, want 1", st.EvictedEstablished)
	}
}

func TestConntrackSYNCookiesUnderPressure(t *testing.T) {
	c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
		ConntrackConfig{MaxEntries: 2, SYNCookies: true, Seed: 1})
	sendTCP(t, c, ctFlow(200), packet.FlagSYN)
	sendTCP(t, c, ctFlow(201), packet.FlagSYN)

	// Table full: a rule-matched SYN is answered statelessly instead of
	// dropped, at extra cycle cost.
	res := sendTCP(t, c, ctFlow(202), packet.FlagSYN)
	if res.Verdict != Accept {
		t.Fatalf("cookie SYN verdict = %v", res.Verdict)
	}
	if res.Cycles <= CyclesParse+CyclesSYNCookie {
		t.Errorf("cookie path cycles = %d, want rule scan + cookie cost", res.Cycles)
	}
	if c.Entries() != 2 {
		t.Errorf("cookie accept must not create state, entries = %d", c.Entries())
	}
	// The cookie'd flow's ACK continues statelessly too.
	res = sendTCP(t, c, ctFlow(202), packet.FlagACK)
	if res.Verdict != Accept {
		t.Fatalf("cookie ACK verdict = %v", res.Verdict)
	}
	st := c.Stats()
	if st.SYNCookiesSent != 1 || st.CookieBypassed != 1 {
		t.Errorf("cookie counters = %d/%d, want 1/1", st.SYNCookiesSent, st.CookieBypassed)
	}
	// A blocklisted source gains nothing from cookies.
	bad := packet.FiveTuple{
		Src: packet.Addr4{10, 66, 1, 1}, Dst: packet.Addr4{192, 168, 1, 2},
		SrcPort: 1, DstPort: 443, Proto: packet.ProtoTCP,
	}
	if res := sendTCP(t, c, bad, packet.FlagSYN); res.Verdict != Drop {
		t.Error("cookies must not bypass the rule set")
	}
}

// TestConntrackEvictionHotPathAllocs guards the zero-allocation claim
// the fairbench gate enforces: steady-state eviction must not allocate.
func TestConntrackEvictionHotPathAllocs(t *testing.T) {
	for _, policy := range []EvictPolicy{EvictRandom, EvictLRU} {
		c := NewConntrackWith("ct", NewLinearMatcher(ctRules),
			ConntrackConfig{MaxEntries: 64, Policy: policy, Seed: 1})
		frames := make([][]byte, 256)
		for i := range frames {
			f, err := packet.BuildTCP4(natOpts, ctFlow(uint16(5000+i)), packet.FlagSYN, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = f
		}
		p := packet.NewParser()
		// Warm up: fill the table and let the map settle.
		for _, f := range frames {
			_ = p.Parse(f)
			if _, err := c.Process(p, f); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		allocs := testing.AllocsPerRun(400, func() {
			f := frames[n%len(frames)]
			n++
			_ = p.Parse(f)
			_, _ = c.Process(p, f)
		})
		if allocs > 0 {
			t.Errorf("policy %v: %v allocs/op on the eviction hot path", policy, allocs)
		}
	}
}

func TestNATBindingEviction(t *testing.T) {
	n := NewNATWith("nat", packet.Addr4{203, 0, 113, 1},
		NATConfig{MaxBindings: 4, Policy: EvictLRU, Seed: 1})
	p := packet.NewParser()
	send := func(i int) error {
		frame, err := packet.BuildUDP4(natOpts, natFlow(uint16(i), packet.ProtoUDP), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Parse(frame); err != nil {
			t.Fatal(err)
		}
		_, err = n.Process(p, frame)
		return err
	}
	for i := 0; i < 32; i++ {
		if err := send(i); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if n.Bindings() != 4 {
		t.Errorf("bindings = %d", n.Bindings())
	}
	if n.Evicted() != 32-4 {
		t.Errorf("evicted = %d, want %d", n.Evicted(), 32-4)
	}
	// Ports must be recycled, not leaked: the used set tracks only live
	// bindings.
	if got := len(n.used); got != 4 {
		t.Errorf("used ports = %d, want 4", got)
	}
}

func TestNATBindingsExhaustedTyped(t *testing.T) {
	n := NewNATWith("nat", packet.Addr4{203, 0, 113, 1}, NATConfig{MaxBindings: 2})
	p := packet.NewParser()
	var lastErr error
	for i := 0; i < 3; i++ {
		frame, err := packet.BuildUDP4(natOpts, natFlow(uint16(i), packet.ProtoUDP), nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = p.Parse(frame)
		_, lastErr = n.Process(p, frame)
	}
	if !errors.Is(lastErr, ErrBindingsExhausted) {
		t.Fatalf("err = %v, want ErrBindingsExhausted", lastErr)
	}
	if n.Exhausted != 1 {
		t.Errorf("Exhausted = %d", n.Exhausted)
	}
}

func TestLBAffinityPinsAcrossRingChange(t *testing.T) {
	lb := NewLoadBalancer("lb", 16)
	lb.EnableAffinity(64, EvictLRU, 1)
	lb.AddBackend(Backend{Name: "a", Addr: packet.Addr4{10, 0, 0, 1}})
	lb.AddBackend(Backend{Name: "b", Addr: packet.Addr4{10, 0, 0, 2}})

	ft := natFlow(7, packet.ProtoUDP)
	first, _, err := lb.pickWithAffinity(ft)
	if err != nil {
		t.Fatal(err)
	}
	// Adding a backend perturbs the ring; the pinned flow must not move.
	lb.AddBackend(Backend{Name: "c", Addr: packet.Addr4{10, 0, 0, 3}})
	again, cycles, err := lb.pickWithAffinity(ft)
	if err != nil {
		t.Fatal(err)
	}
	if again.Name != first.Name {
		t.Fatalf("pinned flow moved %s -> %s", first.Name, again.Name)
	}
	if cycles != CyclesParse+CyclesLBAffinity {
		t.Errorf("affinity hit cycles = %d", cycles)
	}
	// Removing the pinned backend breaks affinity but keeps service.
	lb.RemoveBackend(first.Name)
	moved, _, err := lb.pickWithAffinity(ft)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Name == first.Name {
		t.Fatal("stale pin must not resolve to a removed backend")
	}
	if lb.AffinityBroken == 0 {
		t.Error("stale pin should count as broken affinity")
	}
}

func TestLBAffinityOverflowFallsBackToRing(t *testing.T) {
	lb := NewLoadBalancer("lb", 16)
	lb.EnableAffinity(2, EvictNone, 1)
	lb.AddBackend(Backend{Name: "a", Addr: packet.Addr4{10, 0, 0, 1}})
	for i := 0; i < 8; i++ {
		if _, _, err := lb.pickWithAffinity(natFlow(uint16(i), packet.ProtoUDP)); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
	}
	if lb.AffinityEntries() != 2 {
		t.Errorf("affinity entries = %d", lb.AffinityEntries())
	}
	if lb.AffinityBroken != 6 {
		t.Errorf("AffinityBroken = %d, want 6", lb.AffinityBroken)
	}
}

package nf

import (
	"fairbench/internal/packet"
)

// Connection-tracking (stateful) firewall. Rule lookup happens only for
// the first packet of a flow; established flows take a hash-table fast
// path. This is the software analogue of SmartNIC flow offload — and
// the reason per-packet cost drops sharply once a flow is vetted, which
// is the effect the §4.2 example's accelerator exploits in hardware.
//
// The table is bounded, and what happens past the bound is a first-
// class, configurable policy (ConntrackConfig): refuse new flows (the
// conventional fail-closed DoS posture, now with attributed overflow
// accounting), evict a random or least-recently-used entry, and/or
// answer TCP SYNs statelessly with SYN cookies so connection setup
// survives table exhaustion at extra per-packet cost. Overload-regime
// comparisons depend on these semantics being explicit: a stateful
// firewall that silently sheds new flows looks identical to a healthy
// one on a throughput plot.

// ConnState tracks a TCP connection's lifecycle (UDP flows are modelled
// as established-on-first-accept with idle expiry left to table churn).
type ConnState uint8

// Connection states.
const (
	StateNew ConnState = iota
	StateEstablished
	StateClosing
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateEstablished:
		return "established"
	case StateClosing:
		return "closing"
	default:
		return "unknown"
	}
}

// CyclesConntrackHit is the fast-path cost of an established-flow
// lookup — far below a rule-set scan.
const CyclesConntrackHit = 80

// CyclesSYNCookie is the extra cost of generating or validating a SYN
// cookie: connection state is recomputed from the packet instead of
// read from the table, the classic throughput-for-memory trade.
const CyclesSYNCookie = 110

// ConntrackConfig bounds the connection table and selects degradation
// behaviour at the bound.
type ConntrackConfig struct {
	// MaxEntries bounds the table (<=0 means 1M entries).
	MaxEntries int
	// Policy is applied when a new flow arrives at a full table.
	Policy EvictPolicy
	// SYNCookies answers TCP SYNs statelessly when the table cannot
	// take the flow, and accepts rule-matched mid-connection TCP
	// packets by cookie validation instead of dropping them.
	SYNCookies bool
	// Seed drives eviction randomness (EvictRandom only).
	Seed uint64
}

// ConntrackStats is a point-in-time snapshot of the counters. Every
// processed packet lands in exactly one of the outcome counters, so
// drops under pressure are attributed, never silently lost.
type ConntrackStats struct {
	// NewFlows counts table installs; FastPath counts established-flow
	// hits that bypassed the rule scan.
	NewFlows, FastPath uint64
	// Dropped counts every dropped packet; OverflowDrops is the subset
	// refused solely because the table was full (EvictNone).
	Dropped, OverflowDrops uint64
	// Evicted counts entries removed to admit new flows;
	// EvictedEstablished is the subset that held established
	// connections — the collateral-damage signal.
	Evicted, EvictedEstablished uint64
	// SYNCookiesSent counts stateless SYN accepts under pressure;
	// CookieBypassed counts mid-connection packets accepted by cookie
	// validation with no table entry.
	SYNCookiesSent, CookieBypassed uint64
	// TableFull counts arrivals at a full table whatever the outcome.
	TableFull uint64
	// Entries and MaxEntries snapshot table occupancy.
	Entries, MaxEntries int
}

// Conntrack is a stateful firewall: new flows consult the rule matcher,
// established flows bypass it.
type Conntrack struct {
	name    string
	matcher Matcher
	cfg     ConntrackConfig
	table   *FlowTable
	// Stats (see ConntrackStats for the accounting contract).
	NewFlows, FastPath, Dropped    uint64
	OverflowDrops                  uint64
	EvictedEstablished             uint64
	SYNCookiesSent, CookieBypassed uint64
	// TableFull counts arrivals at a full table whatever the outcome
	// (refused, evicted-to-admit, or cookie-answered).
	TableFull uint64
}

// NewConntrack builds a fail-closed stateful firewall over matcher with
// the given table bound (<=0 means 1M entries).
func NewConntrack(name string, m Matcher, maxEntries int) *Conntrack {
	return NewConntrackWith(name, m, ConntrackConfig{MaxEntries: maxEntries})
}

// NewConntrackWith builds a stateful firewall with explicit degradation
// semantics.
func NewConntrackWith(name string, m Matcher, cfg ConntrackConfig) *Conntrack {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1 << 20
	}
	return &Conntrack{
		name:    name,
		matcher: m,
		cfg:     cfg,
		table:   NewFlowTable(cfg.MaxEntries, cfg.Policy, cfg.Seed),
	}
}

// Name implements Func.
func (c *Conntrack) Name() string { return c.name }

// Entries returns the live connection count.
func (c *Conntrack) Entries() int { return c.table.Len() }

// MaxEntries returns the table bound.
func (c *Conntrack) MaxEntries() int { return c.table.Cap() }

// Config returns the degradation configuration.
func (c *Conntrack) Config() ConntrackConfig { return c.cfg }

// Evicted returns the number of entries evicted to admit new flows.
func (c *Conntrack) Evicted() uint64 { return c.table.Evictions }

// Stats snapshots the counters.
func (c *Conntrack) Stats() ConntrackStats {
	return ConntrackStats{
		NewFlows:           c.NewFlows,
		FastPath:           c.FastPath,
		Dropped:            c.Dropped,
		OverflowDrops:      c.OverflowDrops,
		Evicted:            c.table.Evictions,
		EvictedEstablished: c.EvictedEstablished,
		SYNCookiesSent:     c.SYNCookiesSent,
		CookieBypassed:     c.CookieBypassed,
		TableFull:          c.TableFull,
		Entries:            c.table.Len(),
		MaxEntries:         c.table.Cap(),
	}
}

// State reports the tracked state of a flow (either direction).
func (c *Conntrack) State(ft packet.FiveTuple) (ConnState, bool) {
	if v, ok := c.table.Get(ft); ok {
		return ConnState(v), true
	}
	v, ok := c.table.Get(ft.Reverse())
	return ConnState(v), ok
}

// Process implements Func.
//
//fairbench:hotpath fairbench case nf-conntrack-evict-*
func (c *Conntrack) Process(p *packet.Parser, _ []byte) (Result, error) {
	ft, ok := p.FiveTuple()
	if !ok {
		c.Dropped++
		return Result{Verdict: Drop, Cycles: CyclesParse}, nil
	}

	// Fast path: known flow in either direction. Put runs only after
	// both directions miss, so a connection is stored under exactly one
	// key, and using the direction that hit refreshes its recency.
	key := ft
	v, known := c.table.Use(key)
	if !known {
		key = ft.Reverse()
		v, known = c.table.Use(key)
	}
	if known {
		res := Result{Verdict: Accept, Cycles: CyclesParse + CyclesConntrackHit}
		if ft.Proto == packet.ProtoTCP {
			c.advance(key, ConnState(v), p.TCP.Flags)
		}
		c.FastPath++
		return res, nil
	}

	// Slow path: classify the new flow against the rule set.
	rule, cycles, matched := c.matcher.Match(ft)
	res := Result{Cycles: CyclesParse + cycles}
	if !matched || rule.Action == Drop {
		c.Dropped++
		res.Verdict = Drop
		return res, nil
	}
	// TCP flows must begin with a SYN; anything else without state is a
	// stray mid-connection packet (fail closed) — unless SYN cookies
	// are on, in which case a rule-matched packet is accepted by cookie
	// validation, the stateless continuation of a cookie'd handshake.
	if ft.Proto == packet.ProtoTCP && !p.TCP.Flags.Has(packet.FlagSYN) {
		if c.cfg.SYNCookies {
			c.CookieBypassed++
			res.Verdict = Accept
			res.Cycles += CyclesSYNCookie
			return res, nil
		}
		c.Dropped++
		res.Verdict = Drop
		return res, nil
	}
	if c.table.Len() >= c.table.Cap() {
		c.TableFull++
		if c.cfg.Policy == EvictNone {
			// SYN cookies keep TCP setup alive without table state; all
			// other overflow arrivals are refused, with the refusal
			// attributed rather than folded into generic drops.
			if c.cfg.SYNCookies && ft.Proto == packet.ProtoTCP {
				c.SYNCookiesSent++
				res.Verdict = Accept
				res.Cycles += CyclesSYNCookie
				return res, nil
			}
			c.OverflowDrops++
			c.Dropped++
			res.Verdict = Drop
			return res, nil
		}
	}
	state := StateEstablished
	if ft.Proto == packet.ProtoTCP {
		state = StateNew
	}
	_, victimState, evicted, inserted := c.table.Put(ft, uint32(state))
	if !inserted {
		// Unreachable with the overflow branch above, but keep the
		// accounting total: a refused insert is an attributed drop.
		c.OverflowDrops++
		c.Dropped++
		res.Verdict = Drop
		return res, nil
	}
	if evicted && ConnState(victimState) == StateEstablished {
		c.EvictedEstablished++
	}
	c.NewFlows++
	res.Verdict = Accept
	return res, nil
}

// advance moves a TCP connection, stored under key, through its
// lifecycle and removes finished connections from the table.
func (c *Conntrack) advance(key packet.FiveTuple, state ConnState, flags packet.TCPFlags) {
	switch {
	case flags.Has(packet.FlagRST):
		c.table.Delete(key)
	case flags.Has(packet.FlagFIN):
		if state == StateClosing {
			c.table.Delete(key)
		} else {
			c.table.Set(key, uint32(StateClosing))
		}
	case state == StateNew && flags.Has(packet.FlagACK):
		c.table.Set(key, uint32(StateEstablished))
	}
}

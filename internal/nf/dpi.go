package nf

import (
	"fmt"
	"sort"

	"fairbench/internal/packet"
)

// ahoNode is one state of the Aho–Corasick automaton, dense over bytes
// for branch-free stepping on the hot path. During construction, next
// entries of -1 mean "no trie edge"; buildDFA folds failure transitions
// in so that after construction every entry is a valid state.
type ahoNode struct {
	next    [256]int32
	fail    int32
	outputs []int32 // pattern indices ending at this state
}

// AhoCorasick is a multi-pattern string matcher over packet payloads —
// the signature-matching core of intrusion-detection network functions.
// Matching is O(payload bytes + matches) regardless of pattern count.
type AhoCorasick struct {
	nodes    []ahoNode
	patterns []string
}

// NewAhoCorasick builds the automaton for the given patterns. Empty
// pattern lists are allowed (the automaton matches nothing); empty
// pattern strings are rejected.
func NewAhoCorasick(patterns []string) (*AhoCorasick, error) {
	a := &AhoCorasick{patterns: append([]string(nil), patterns...)}
	a.nodes = append(a.nodes, newAhoNode())

	for pi, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("nf: empty DPI pattern at index %d", pi)
		}
		cur := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			nxt := a.nodes[cur].next[c]
			if nxt == -1 {
				a.nodes = append(a.nodes, newAhoNode())
				nxt = int32(len(a.nodes) - 1)
				a.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		a.nodes[cur].outputs = append(a.nodes[cur].outputs, int32(pi))
	}
	a.buildDFA()
	return a, nil
}

func newAhoNode() ahoNode {
	var n ahoNode
	for i := range n.next {
		n.next[i] = -1
	}
	return n
}

// buildDFA computes failure links breadth-first and folds them into the
// transition table, turning the trie into a DFA.
func (a *AhoCorasick) buildDFA() {
	queue := make([]int32, 0, len(a.nodes))
	root := &a.nodes[0]
	for c := 0; c < 256; c++ {
		if v := root.next[c]; v == -1 {
			root.next[c] = 0
		} else {
			a.nodes[v].fail = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			v := a.nodes[u].next[c]
			failNext := a.nodes[a.nodes[u].fail].next[c]
			if v == -1 {
				a.nodes[u].next[c] = failNext
				continue
			}
			a.nodes[v].fail = failNext
			a.nodes[v].outputs = append(a.nodes[v].outputs, a.nodes[failNext].outputs...)
			queue = append(queue, v)
		}
	}
}

// Patterns returns the compiled pattern list.
func (a *AhoCorasick) Patterns() []string { return a.patterns }

// States returns the automaton size (useful for memory-cost reporting).
func (a *AhoCorasick) States() int { return len(a.nodes) }

// Search scans data and calls fn with (pattern index, end offset) for
// every match. fn returning false stops the scan early.
func (a *AhoCorasick) Search(data []byte, fn func(pattern int, end int) bool) {
	state := int32(0)
	for i, b := range data {
		state = a.nodes[state].next[b]
		for _, pi := range a.nodes[state].outputs {
			if !fn(int(pi), i+1) {
				return
			}
		}
	}
}

// First returns the first pattern Search would report for data: the
// match with the smallest end offset.
func (a *AhoCorasick) First(data []byte) (pattern int, ok bool) {
	state := int32(0)
	for _, b := range data {
		state = a.nodes[state].next[b]
		if out := a.nodes[state].outputs; len(out) > 0 {
			return int(out[0]), true
		}
	}
	return 0, false
}

// Contains reports whether any pattern occurs in data.
func (a *AhoCorasick) Contains(data []byte) bool {
	_, ok := a.First(data)
	return ok
}

// DPI is an intrusion-detection network function: packets whose payload
// matches any signature are dropped (inline IPS behaviour). The cycle
// cost is proportional to payload bytes inspected, which is what makes
// DPI the CPU-heavy workload in the offload experiments.
type DPI struct {
	name string
	ac   *AhoCorasick
	// Alerts counts matched packets per pattern index.
	Alerts map[int]uint64
	// Inspected counts total payload bytes scanned.
	Inspected uint64
}

// NewDPI builds an inline DPI engine for the given signatures.
func NewDPI(name string, signatures []string) (*DPI, error) {
	ac, err := NewAhoCorasick(signatures)
	if err != nil {
		return nil, err
	}
	return &DPI{name: name, ac: ac, Alerts: make(map[int]uint64)}, nil
}

// Name implements Func.
func (d *DPI) Name() string { return d.name }

// Process implements Func.
func (d *DPI) Process(p *packet.Parser, _ []byte) (Result, error) {
	payload := p.Payload
	d.Inspected += uint64(len(payload))
	cycles := uint64(CyclesParse) + uint64(len(payload))*CyclesPerPayloadByte
	verdict := Accept
	if pattern, ok := d.ac.First(payload); ok {
		d.Alerts[pattern]++
		verdict = Drop
	}
	return Result{Verdict: verdict, Cycles: cycles}, nil
}

// FlowCounter counts packets and bytes per flow — the bookkeeping
// network function used for fairness (JFI) measurements.
type FlowCounter struct {
	name string
	// Packets and Bytes are per-flow tallies.
	Packets map[packet.FiveTuple]uint64
	Bytes   map[packet.FiveTuple]uint64
}

// NewFlowCounter builds a counter.
func NewFlowCounter(name string) *FlowCounter {
	return &FlowCounter{
		name:    name,
		Packets: make(map[packet.FiveTuple]uint64),
		Bytes:   make(map[packet.FiveTuple]uint64),
	}
}

// Name implements Func.
func (c *FlowCounter) Name() string { return c.name }

// Process implements Func.
func (c *FlowCounter) Process(p *packet.Parser, frame []byte) (Result, error) {
	if ft, ok := p.FiveTuple(); ok {
		c.Packets[ft]++
		c.Bytes[ft] += uint64(len(frame))
	}
	return Result{Verdict: Accept, Cycles: CyclesParse + CyclesCount}, nil
}

// ByteAllocations returns per-flow byte counts as a sorted slice, the
// input Jain's fairness index expects. Sorting pins the float
// accumulation order downstream, which map iteration would otherwise
// randomize run to run.
func (c *FlowCounter) ByteAllocations() []float64 {
	out := make([]float64, 0, len(c.Bytes))
	for _, b := range c.Bytes {
		out = append(out, float64(b))
	}
	sort.Float64s(out)
	return out
}

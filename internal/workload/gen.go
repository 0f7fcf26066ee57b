// Package workload generates synthetic traffic for the simulated
// deployments: RFC 2544-style fixed-size and IMIX packet mixes, Zipf
// flow popularity, constant-rate and Poisson arrivals, and configurable
// fractions of blocklisted ("attack") traffic for the firewall
// experiments. It also records and replays traces in a compact binary
// format, substituting for the proprietary production traces the
// paper's example systems would be evaluated with.
package workload

import (
	"fmt"

	"fairbench/internal/packet"
	"fairbench/internal/sim"
)

// SizeDist selects frame sizes.
type SizeDist interface {
	// Next returns the next frame size in bytes (Ethernet, no FCS).
	Next(rng *sim.RNG) int
	// Mean returns the expected frame size in bytes.
	Mean() float64
	// Name labels the distribution in reports.
	Name() string
}

// FixedSize is a constant frame size — RFC 2544 throughput tests use
// 64-byte minimum frames.
type FixedSize int

// Next implements SizeDist.
func (f FixedSize) Next(*sim.RNG) int { return int(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

// Name implements SizeDist.
func (f FixedSize) Name() string { return fmt.Sprintf("fixed-%d", int(f)) }

// imixEntry is one component of a mixture distribution.
type imixEntry struct {
	size   int
	weight float64
}

// Mix is a weighted mixture of frame sizes.
type Mix struct {
	name    string
	entries []imixEntry
	cum     []float64
	mean    float64
}

// NewMix builds a mixture from (size, weight) pairs; weights are
// normalised.
func NewMix(name string, sizes []int, weights []float64) (*Mix, error) {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		return nil, fmt.Errorf("workload: mix needs matching non-empty sizes and weights")
	}
	m := &Mix{name: name}
	var total float64
	for i, s := range sizes {
		if s < packet.MinFrameLen || s > packet.MaxFrameLen {
			return nil, fmt.Errorf("workload: frame size %d outside [%d, %d]", s, packet.MinFrameLen, packet.MaxFrameLen)
		}
		if weights[i] <= 0 {
			return nil, fmt.Errorf("workload: non-positive weight %v", weights[i])
		}
		total += weights[i]
		m.entries = append(m.entries, imixEntry{size: s, weight: weights[i]})
	}
	var cum float64
	for _, e := range m.entries {
		cum += e.weight / total
		m.cum = append(m.cum, cum)
		m.mean += e.weight / total * float64(e.size)
	}
	return m, nil
}

// IMIX returns the classic "simple IMIX" mixture: 64-byte (58.33%),
// 594-byte (33.33%), 1518-byte (8.33%) frames. The 64-byte component is
// padded to the 60-byte minimum our builder enforces (we model frames
// without FCS; a wire 64-byte frame is 60 bytes here).
func IMIX() *Mix {
	m, err := NewMix("imix", []int{60, 594, 1514}, []float64{7, 4, 1})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return m
}

// Next implements SizeDist.
func (m *Mix) Next(rng *sim.RNG) int {
	u := rng.Float64()
	for i, c := range m.cum {
		if u <= c {
			return m.entries[i].size
		}
	}
	return m.entries[len(m.entries)-1].size
}

// Mean implements SizeDist.
func (m *Mix) Mean() float64 { return m.mean }

// Name implements SizeDist.
func (m *Mix) Name() string { return m.name }

// Spec configures a traffic generator.
type Spec struct {
	// Flows is the number of distinct five-tuples (default 1024).
	Flows int
	// ZipfSkew skews flow popularity; 0 draws flows uniformly.
	ZipfSkew float64
	// Sizes selects frame sizes (default IMIX).
	Sizes SizeDist
	// AttackFraction is the probability a generated flow originates
	// from the blocklisted prefix AttackPrefix — traffic the firewall
	// examples drop, and the switch experiment pre-drops in-network.
	AttackFraction float64
	// TCPFraction is the probability a flow is TCP rather than UDP
	// (default 0 — UDP keeps generation cheap; TCP flows exercise the
	// TCP path).
	TCPFraction float64
	// Seed derives all random streams (default 1).
	Seed uint64
}

// AttackPrefix is the source prefix of blocklisted traffic: 10.66.0.0/16.
var AttackPrefix = packet.Addr4{10, 66, 0, 0}

func (s Spec) withDefaults() Spec {
	if s.Flows == 0 {
		s.Flows = 1024
	}
	if s.Sizes == nil {
		s.Sizes = IMIX()
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Pkt is one generated packet: its flow, pre-built frame bytes, and
// whether it came from the attack prefix (ground truth for loss
// accounting). Scenario generators additionally stamp the traffic
// class for goodput metering; the plain Generator leaves it empty
// (treated as legitimate).
type Pkt struct {
	Flow   packet.FiveTuple
	Frame  []byte
	Attack bool
	Class  Class
}

// Generator produces packets per a Spec. Frames are pre-built per
// (flow, size) template and the returned slice aliases the template:
// consumers that rewrite frames in place must copy first (or use
// NextCopy).
type Generator struct {
	spec  Spec
	flows []flowState
	zipf  *sim.Zipf
	rng   *sim.RNG
	// Generated counts packets produced.
	Generated uint64
	// templates caches built frames; heads[flow] indexes the first of
	// that flow's templates, chained through next (-1 ends a chain). A
	// chain is as long as the number of distinct sizes (3 for IMIX).
	templates []template
	heads     []int32
}

type flowState struct {
	ft     packet.FiveTuple
	attack bool
}

// template is one cached frame of a flow and size.
type template struct {
	size, next int32
	frame      []byte
}

// NewGenerator builds a generator.
func NewGenerator(spec Spec) (*Generator, error) {
	spec = spec.withDefaults()
	if spec.Flows < 0 || spec.AttackFraction < 0 || spec.AttackFraction > 1 || spec.TCPFraction < 0 || spec.TCPFraction > 1 {
		return nil, fmt.Errorf("workload: invalid spec %+v", spec)
	}
	g := &Generator{spec: spec, rng: sim.NewRNG(spec.Seed)}
	flowRng := g.rng.Derive("flows")
	for i := 0; i < spec.Flows; i++ {
		attack := flowRng.Float64() < spec.AttackFraction
		var src packet.Addr4
		if attack {
			src = packet.Addr4{10, 66, byte(i >> 8), byte(i)}
		} else {
			src = packet.Addr4{10, byte(1 + i%60), byte(i >> 8), byte(i)}
		}
		proto := packet.ProtoUDP
		if flowRng.Float64() < spec.TCPFraction {
			proto = packet.ProtoTCP
		}
		ft := packet.FiveTuple{
			Src:     src,
			Dst:     packet.Addr4{192, 168, 1, byte(1 + i%200)},
			SrcPort: uint16(1024 + i%60000),
			DstPort: pickDstPort(proto, i),
			Proto:   proto,
		}
		g.flows = append(g.flows, flowState{ft: ft, attack: attack})
	}
	if spec.ZipfSkew > 0 && spec.Flows > 0 {
		g.zipf = sim.NewZipf(g.rng.Derive("zipf"), spec.Flows, spec.ZipfSkew)
	}
	return g, nil
}

// pickDstPort steers generated flows toward the example rule sets'
// accept ports (443/TCP, 53/UDP) with some spread.
func pickDstPort(proto uint8, i int) uint16 {
	if proto == packet.ProtoTCP {
		return 443
	}
	if i%5 == 0 {
		return uint16(2000 + i%100)
	}
	return 53
}

// Spec returns the effective specification.
func (g *Generator) Spec() Spec { return g.spec }

// ArrivalRNG returns a dedicated random stream for inter-arrival draws,
// derived from the generator's seed so that packet content and arrival
// timing are independently reproducible.
func (g *Generator) ArrivalRNG() *sim.RNG { return sim.NewRNG(g.spec.Seed).Derive("arrivals") }

// Flows returns the generated flow population size.
func (g *Generator) Flows() int { return len(g.flows) }

// Next produces the next packet. The frame aliases an internal
// template; copy before mutating.
//
//fairbench:hotpath per-packet traffic generation
func (g *Generator) Next() (Pkt, error) {
	if len(g.flows) == 0 {
		return Pkt{}, fmt.Errorf("workload: generator has no flows")
	}
	if g.heads == nil {
		//fairlint:allow hotalloc the per-flow chain heads are made once, on the first packet
		g.heads = make([]int32, len(g.flows))
		for i := range g.heads {
			g.heads[i] = -1
		}
	}
	var idx int
	if g.zipf != nil {
		idx = g.zipf.Draw()
	} else {
		idx = g.rng.Intn(len(g.flows))
	}
	fs := g.flows[idx]
	size := g.spec.Sizes.Next(g.rng)
	var frame []byte
	for t := g.heads[idx]; t >= 0; t = g.templates[t].next {
		if int(g.templates[t].size) == size {
			frame = g.templates[t].frame
			break
		}
	}
	if frame == nil {
		// A miss builds the (flow, size) template once; the frame is
		// allocated in the packet builders, under their own allow.
		var err error
		frame, err = buildFrame(fs.ft, size)
		if err != nil {
			return Pkt{}, err
		}
		//fairlint:allow hotalloc the template cache grows to at most flows x sizes entries
		g.templates = append(g.templates, template{size: int32(size), next: g.heads[idx], frame: frame})
		g.heads[idx] = int32(len(g.templates) - 1)
	}
	g.Generated++
	return Pkt{Flow: fs.ft, Frame: frame, Attack: fs.attack}, nil
}

// NextCopy is Next but returns a private copy of the frame, safe to
// mutate (needed by NAT/LB deployments).
func (g *Generator) NextCopy() (Pkt, error) {
	p, err := g.Next()
	if err != nil {
		return Pkt{}, err
	}
	frame := make([]byte, len(p.Frame))
	copy(frame, p.Frame)
	p.Frame = frame
	return p, nil
}

var genOpts = packet.BuildOpts{
	SrcMAC: packet.MAC{0x02, 0xfa, 0x1b, 0, 0, 1},
	DstMAC: packet.MAC{0x02, 0xfa, 0x1b, 0, 0, 2},
}

// filler is the payload every generated frame carries, sliced to
// length: benign letters with no DPI signatures, as long as the IPv4
// length field allows. It is read-only; the frame builders copy it.
var filler = func() []byte {
	b := make([]byte, 0xffff)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

// buildFrame constructs a frame of exactly size bytes for the flow.
func buildFrame(ft packet.FiveTuple, size int) ([]byte, error) {
	var overhead int
	switch ft.Proto {
	case packet.ProtoUDP:
		overhead = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.UDPHeaderLen
	case packet.ProtoTCP:
		overhead = packet.EthernetHeaderLen + packet.IPv4MinHeaderLen + packet.TCPMinHeaderLen
	default:
		return nil, fmt.Errorf("workload: unsupported proto %d", ft.Proto)
	}
	payLen := size - overhead
	if payLen < 0 {
		payLen = 0
	}
	if payLen > len(filler) {
		return nil, fmt.Errorf("workload: frame size %d overflows the IPv4 length field", size)
	}
	payload := filler[:payLen]
	if ft.Proto == packet.ProtoUDP {
		return packet.BuildUDP4(genOpts, ft, payload)
	}
	return packet.BuildTCP4(genOpts, ft, packet.FlagACK, 1, 1, payload)
}

// Arrival is an inter-arrival process over simulated time.
type Arrival interface {
	// NextGap returns seconds until the next arrival at rate pps.
	NextGap(rng *sim.RNG, pps float64) float64
	// Name labels the process.
	Name() string
}

// CBR is constant bit/packet rate: deterministic inter-arrival gaps,
// the RFC 2544 offered-load model.
type CBR struct{}

// NextGap implements Arrival.
func (CBR) NextGap(_ *sim.RNG, pps float64) float64 { return 1 / pps }

// Name implements Arrival.
func (CBR) Name() string { return "cbr" }

// Poisson draws exponential gaps — bursty arrivals for latency studies.
type Poisson struct{}

// NextGap implements Arrival.
func (Poisson) NextGap(rng *sim.RNG, pps float64) float64 { return rng.Exp(pps) }

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }

package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"stellar/internal/netpkt"
)

// linearClassify is the reference implementation: the seed's first-match
// linear scan over the install order.
func linearClassify(rules []*Rule, f netpkt.FlowKey) *Rule {
	for _, r := range rules {
		if r.Match.Matches(f) {
			return r
		}
	}
	return nil
}

// randomMatch draws a match pattern touching a small value space so
// rules overlap and every index of the compiled classifier is
// exercised.
func randomMatch(rng *rand.Rand, macs []netpkt.MAC) Match {
	m := MatchAll()
	if rng.Intn(10) < 3 {
		mac := macs[rng.Intn(len(macs))]
		m.SrcMAC = &mac
	}
	if rng.Intn(10) < 6 {
		m.Proto = []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}[rng.Intn(3)]
	}
	if rng.Intn(10) < 3 {
		m.SrcIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(4) * 64)}), 24+rng.Intn(9))
	}
	if rng.Intn(10) < 3 {
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(rng.Intn(3)), 0}), 8+rng.Intn(25))
	}
	if rng.Intn(10) < 4 {
		m.SrcPort = int32([]uint16{0, 19, 53, 123, 389, 11211}[rng.Intn(6)])
	}
	if rng.Intn(10) < 4 {
		m.DstPort = int32([]uint16{80, 443, 8080}[rng.Intn(3)])
	}
	return m
}

func randomFlow(rng *rand.Rand, macs []netpkt.MAC) netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  macs[rng.Intn(len(macs))],
		Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(rng.Intn(256))}),
		Dst:     netip.AddrFrom4([4]byte{100, 10, byte(rng.Intn(3)), byte(rng.Intn(256))}),
		Proto:   []netpkt.IPProto{netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}[rng.Intn(3)],
		SrcPort: []uint16{0, 19, 53, 123, 389, 11211, 40000}[rng.Intn(7)],
		DstPort: []uint16{80, 443, 8080, 22}[rng.Intn(4)],
	}
}

// TestClassifierMatchesLinearScan cross-validates the compiled
// classifier against the linear reference over randomized overlapping
// rule sets.
func TestClassifierMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	macs := make([]netpkt.MAC, 6)
	for i := range macs {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:00:%02x", i+1))
	}
	for trial := 0; trial < 50; trial++ {
		p := NewPort("victim", macs[0], 1e9)
		n := 1 + rng.Intn(64)
		for i := 0; i < n; i++ {
			r := &Rule{ID: fmt.Sprintf("r%d", i), Match: randomMatch(rng, macs),
				Action: ActionKind(rng.Intn(3))}
			if r.Action == ActionShape {
				r.ShapeRateBps = 1e6
			}
			if err := p.InstallRule(r); err != nil {
				t.Fatal(err)
			}
		}
		rules := p.Rules()
		for q := 0; q < 200; q++ {
			f := randomFlow(rng, macs)
			want := linearClassify(rules, f)
			if got := p.Classify(f); got != want {
				t.Fatalf("trial %d: Classify(%v) = %v, want %v (rules: %v)", trial, f, got, want, rules)
			}
		}
	}
}

// TestClassifierFirstMatchAcrossIndexes pins the priority semantics when
// the competing rules live in different compiled indexes.
func TestClassifierFirstMatchAcrossIndexes(t *testing.T) {
	p := newVictimPort()
	// Install order: dst-port rule, then src-port rule, then dst-prefix
	// rule, then MAC rule, then a wildcard. All match the probe flow; the
	// first installed must win, then each removal promotes the next.
	mDst := MatchAll()
	mDst.Proto = netpkt.ProtoUDP
	mDst.DstPort = 443
	mSrc := MatchAll()
	mSrc.SrcPort = 123 // any proto, pinned src port
	mPfx := MatchAll()
	mPfx.DstIP = netip.MustParsePrefix("100.10.0.0/16")
	mMAC := MatchAll()
	mMAC.SrcMAC = &macPeerA
	order := []struct {
		id string
		m  Match
	}{
		{"by-dstport", mDst},
		{"by-srcport", mSrc},
		{"by-dstpfx", mPfx},
		{"by-mac", mMAC},
		{"wildcard", MatchAll()},
	}
	for _, r := range order {
		if err := p.InstallRule(&Rule{ID: r.id, Match: r.m, Action: ActionDrop}); err != nil {
			t.Fatal(err)
		}
	}
	f := udpFlow(macPeerA, srcIPA, 123) // matches every rule above
	for _, want := range order {
		got := p.Classify(f)
		if got == nil || got.ID != want.id {
			t.Fatalf("want %s, got %v", want.id, got)
		}
		if err := p.RemoveRule(want.id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Classify(f); got != nil {
		t.Fatalf("empty port classified %v", got)
	}
}

// TestClassifierAnyProtoPortRule covers the proto-wildcard port bucket.
func TestClassifierAnyProtoPortRule(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.DstPort = 443 // any proto
	if err := p.InstallRule(&Rule{ID: "dst443", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if r := p.Classify(udpFlow(macPeerA, srcIPA, 123)); r == nil {
		t.Fatal("udp dst 443 missed")
	}
	if r := p.Classify(tcpFlow(macPeerB, srcIPB, 443)); r == nil {
		t.Fatal("tcp dst 443 missed")
	}
	if r := p.Classify(tcpFlow(macPeerB, srcIPB, 80)); r != nil {
		t.Fatalf("dst 80 matched %v", r)
	}
}

// TestClassifierIPv6Prefixes exercises the v6 side of the prefix tables.
func TestClassifierIPv6Prefixes(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.DstIP = netip.MustParsePrefix("2001:db8::/32")
	if err := p.InstallRule(&Rule{ID: "v6", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	in := netpkt.FlowKey{Src: netip.MustParseAddr("2001:db8:ff::1"),
		Dst: netip.MustParseAddr("2001:db8::10"), Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	out := in
	out.Dst = netip.MustParseAddr("2001:db9::10")
	if r := p.Classify(in); r == nil {
		t.Fatal("v6 dst inside prefix missed")
	}
	if r := p.Classify(out); r != nil {
		t.Fatalf("v6 dst outside prefix matched %v", r)
	}
	// A v4 flow must not be swallowed by the v6 table.
	if r := p.Classify(udpFlow(macPeerA, srcIPA, 123)); r != nil {
		t.Fatalf("v4 flow matched v6 rule: %v", r)
	}
}

// TestClassifierV4TrieDiscriminates is the structural regression test
// for the v4 prefix tables: distinct v4 /32 rules must land in distinct
// buckets (keyed by the real v4 address bits), not collapse into one,
// which would degrade dst-prefix blackholing back to a linear scan.
func TestClassifierV4TrieDiscriminates(t *testing.T) {
	const n = 256
	rules := make([]*Rule, n)
	for i := range rules {
		m := MatchAll()
		m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 10, byte(i / 256), byte(i)}), 32)
		rules[i] = &Rule{ID: fmt.Sprintf("d%03d", i), Match: m, Action: ActionDrop}
	}
	c := compile(rules)
	if len(c.dstIP.v4) != n {
		t.Fatalf("%d v4 /32 rules occupy %d buckets, want %d", n, len(c.dstIP.v4), n)
	}
	for k, cands := range c.dstIP.v4 {
		if len(cands) != 1 {
			t.Fatalf("v4 bucket %#x holds %d candidates; /32 rules must not share buckets", k, len(cands))
		}
	}
	// And the lookup still finds the right rule.
	f := netpkt.FlowKey{Src: srcIPA, Dst: netip.AddrFrom4([4]byte{100, 10, 0, 77}),
		Proto: netpkt.ProtoUDP, SrcPort: 123, DstPort: 443}
	if got := c.classify(f); got == nil || got.ID != "d077" {
		t.Fatalf("classify: %v", got)
	}
}

// TestRulesDefensiveCopy pins the contract that mutating the slice
// returned by Rules cannot corrupt the port's rule order.
func TestRulesDefensiveCopy(t *testing.T) {
	p := newVictimPort()
	if err := p.InstallRule(dropNTPRule()); err != nil {
		t.Fatal(err)
	}
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	if err := p.InstallRule(&Rule{ID: "drop-udp", Match: m, Action: ActionDrop}); err != nil {
		t.Fatal(err)
	}
	got := p.Rules()
	got[0], got[1] = got[1], got[0]
	got[0] = nil
	again := p.Rules()
	if len(again) != 2 || again[0].ID != "drop-ntp" || again[1].ID != "drop-udp" {
		t.Fatalf("port rules corrupted by caller mutation: %v", again)
	}
	if p.Classify(udpFlow(macPeerA, srcIPA, 123)).ID != "drop-ntp" {
		t.Fatal("classification order changed")
	}
}

// TestConcurrentRuleChurnAndClassify is the -race stress test: rule
// management, classification, flow-level egress and per-packet egress
// all run concurrently against one port.
func TestConcurrentRuleChurnAndClassify(t *testing.T) {
	p := newVictimPort()
	m := MatchAll()
	m.Proto = netpkt.ProtoUDP
	m.SrcPort = 123
	if err := p.InstallRule(&Rule{ID: "pinned-shape", Match: m, Action: ActionShape, ShapeRateBps: 1e8}); err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	// Writers: churn per-worker rule IDs.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("w%d-%d", w, i%8)
				mm := MatchAll()
				mm.Proto = netpkt.ProtoUDP
				mm.SrcPort = int32(1000 + w*100 + i%8)
				if err := p.InstallRule(&Rule{ID: id, Match: mm, Action: ActionDrop}); err != nil && err != ErrDuplicateRule {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if err := p.RemoveRule(id); err != nil && err != ErrNoSuchRule {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: classify, flow egress, packet egress, rule listing.
	offers := []Offer{
		{Flow: udpFlow(macPeerA, srcIPA, 123), Bytes: 1e6, Packets: 1000},
		{Flow: udpFlow(macPeerA, srcIPA, 1001), Bytes: 1e5, Packets: 100},
		{Flow: tcpFlow(macPeerB, srcIPB, 443), Bytes: 5e5, Packets: 500},
	}
	pkt := netpkt.NewBuilder(macPeerA, macVictim).IPv4(srcIPA, victimIP).UDP(123, 443).PayloadLen(400).Build()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p.Egress(offers, 0.01)
				p.Classify(offers[i%len(offers)].Flow)
				p.EgressPacket(pkt)
				if rs := p.Rules(); len(rs) == 0 {
					t.Error("pinned rule disappeared")
					return
				}
				p.RefillShapers(0.01)
				p.RuleCount()
			}
		}()
	}
	wg.Wait()
	if _, err := p.Rule("pinned-shape"); err != nil {
		t.Fatalf("pinned rule lost: %v", err)
	}
}

// TestConcurrentFabricTicks races whole-fabric ticks against rule churn
// across many ports (the parallel egress pool under -race).
func TestConcurrentFabricTicks(t *testing.T) {
	f := New()
	const ports = 8
	macs := make([]netpkt.MAC, ports)
	offers := make(TickOffers, ports)
	for i := 0; i < ports; i++ {
		macs[i] = netpkt.MustParseMAC(fmt.Sprintf("02:00:00:00:01:%02x", i))
		name := fmt.Sprintf("port%d", i)
		if err := f.AddPort(NewPort(name, macs[i], 1e9)); err != nil {
			t.Fatal(err)
		}
		offers[name] = []Offer{
			{Flow: udpFlow(macs[i], srcIPA, 123), Bytes: 2e5, Packets: 200},
			{Flow: tcpFlow(macs[i], srcIPB, 443), Bytes: 1e5, Packets: 100},
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := f.Tick(offers, 0.01); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		m := MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 123
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("port%d", i%ports)
			port, err := f.PortByName(name)
			if err != nil {
				t.Error(err)
				return
			}
			_ = port.InstallRule(&Rule{ID: "churn", Match: m, Action: ActionDrop})
			_ = port.RemoveRule("churn")
		}
	}()
	wg.Wait()
}

// TestRuleChangeTickAllocsFlowIndependent pins the cost of the tick
// that follows a rule change: installing a rule, running one egress
// tick and removing the rule again must allocate the same at 8 offers
// as at 800, so a fresh classifier generation costs nothing per flow.
func TestRuleChangeTickAllocsFlowIndependent(t *testing.T) {
	allocs := func(n int) float64 {
		p := newVictimPort()
		offers := make([]Offer, n)
		for i := range offers {
			f := udpFlow(macPeerA, srcIPA, uint16(100+i))
			offers[i] = Offer{Flow: f, FlowHash: f.Hash(), Bytes: 1e4, Packets: 10}
		}
		r := dropNTPRule()
		return testing.AllocsPerRun(50, func() {
			if err := p.InstallRule(r); err != nil {
				t.Fatal(err)
			}
			p.EgressStream(offers, 1, nil)
			if err := p.RemoveRule(r.ID); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(800)
	// Under -race sync.Pool drops the forward-queue scratch at random,
	// and regrowing it costs a few allocations per run on average.
	slack := 0.0
	if raceEnabled {
		slack = 10
	}
	if math.Abs(small-large) > slack {
		t.Fatalf("allocations per install+tick+remove: %v at 8 offers, %v at 800", small, large)
	}
}

// fuzzReader hands out fuzz bytes one at a time, then zeros.
type fuzzReader []byte

func (b *fuzzReader) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

var (
	fuzzMACs   = []netpkt.MAC{macPeerA, macPeerB, macVictim, {}}
	fuzzPorts  = []uint16{0, 53, 123, 443, 11211, 65535}
	fuzzProtos = []netpkt.IPProto{0, netpkt.ProtoUDP, netpkt.ProtoTCP, netpkt.ProtoICMP}
)

// addr decodes a selector byte and a host byte into an address: v4
// (kind 0), v6 (1), 4-in-6 mapped (2), the zero Addr (3) or a zoned v6
// address (4). Bits 3-4 of sel pick one of four neighbouring networks.
func (b *fuzzReader) addr(kinds byte) netip.Addr {
	sel, host := b.next(), b.next()
	net := (sel >> 3) % 4
	switch sel % kinds {
	case 0:
		return netip.AddrFrom4([4]byte{100, 10, net, host})
	case 1:
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, net, 15: host})
	case 2:
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 100, 13: 10, 14: net, 15: host})
	case 3:
		return netip.Addr{}
	default:
		return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, net, 15: host}).WithZone("eth0")
	}
}

// prefix decodes a rule prefix of any length, host bits left unmasked.
func (b *fuzzReader) prefix() netip.Prefix {
	a := b.addr(3)
	return netip.PrefixFrom(a, int(b.next())%(a.BitLen()+1))
}

// rule decodes one rule: a flags byte selecting the criteria (bit 0
// MAC, 1 proto, 2 src prefix, 3 dst prefix, 4 src port, 5 dst port;
// bits 6-7 the action), then one value per selected criterion. A clear
// proto bit wildcards the protocol.
func (b *fuzzReader) rule(id string) *Rule {
	flags := b.next()
	m := MatchAll()
	if flags&1 != 0 {
		mac := fuzzMACs[int(b.next())%len(fuzzMACs)]
		m.SrcMAC = &mac
	}
	if flags&2 != 0 {
		m.Proto = fuzzProtos[1+int(b.next())%(len(fuzzProtos)-1)]
	}
	if flags&4 != 0 {
		m.SrcIP = b.prefix()
	}
	if flags&8 != 0 {
		m.DstIP = b.prefix()
	}
	if flags&16 != 0 {
		m.SrcPort = int32(fuzzPorts[int(b.next())%len(fuzzPorts)])
	}
	if flags&32 != 0 {
		m.DstPort = int32(fuzzPorts[int(b.next())%len(fuzzPorts)])
	}
	return &Rule{ID: id, Match: m, Action: ActionKind(flags>>6) % 3, ShapeRateBps: 1e6}
}

// flow decodes a flow header: MAC, proto (0 included), src, dst, ports.
func (b *fuzzReader) flow() netpkt.FlowKey {
	return netpkt.FlowKey{
		SrcMAC:  fuzzMACs[int(b.next())%len(fuzzMACs)],
		Proto:   fuzzProtos[int(b.next())%len(fuzzProtos)],
		Src:     b.addr(5),
		Dst:     b.addr(5),
		SrcPort: fuzzPorts[int(b.next())%len(fuzzPorts)],
		DstPort: fuzzPorts[int(b.next())%len(fuzzPorts)],
	}
}

// FuzzClassifierMatchesLinear decodes up to 32 rules and a set of flows
// from the fuzz input and requires the compiled lookup to agree with the
// linear first-match scan, before and after one rule is removed. The
// byte layout is: rule count, the rules (see fuzzReader.rule), then
// 8-byte flows (see fuzzReader.flow) to the end of the input.
func FuzzClassifierMatchesLinear(f *testing.F) {
	// The shape of TestClassifierFirstMatchAcrossIndexes: UDP dst-port
	// 443, any-proto src-port 123, dst 100.10.0.0/16, MAC, wildcard;
	// one UDP 123 -> 443 flow matching all five.
	f.Add([]byte{5, 0x22, 0, 3, 0x10, 2, 0x08, 0, 0, 16, 0x01, 0, 0x00,
		0, 1, 0, 1, 0, 77, 2, 3})
	// TestClassifierIPv6Prefixes: a v6 /32 dst rule, a v6 and a v4 flow.
	f.Add([]byte{1, 0x08, 1, 0, 32,
		0, 1, 1, 1, 1, 16, 2, 3,
		0, 1, 0, 1, 0, 16, 2, 3})
	// TestClassifierAnyProtoPortRule: any-proto dst 443; UDP, TCP,
	// proto-0 flows to 443 and a TCP flow to 53.
	f.Add([]byte{1, 0x20, 3,
		0, 1, 0, 1, 0, 9, 2, 3,
		1, 2, 0, 2, 0, 9, 0, 3,
		1, 0, 0, 2, 0, 9, 0, 3,
		1, 2, 0, 2, 0, 9, 0, 1})
	// 4-in-6: a ::ffff:100.10.0.0/120 dst rule ahead of a v4 /24 rule,
	// with mapped, native v4 and zoned v6 flows.
	f.Add([]byte{2, 0x48, 2, 0, 120, 0x88, 0, 0, 24,
		0, 1, 0, 1, 2, 5, 2, 3,
		0, 1, 0, 1, 0, 5, 2, 3,
		0, 1, 0, 1, 4, 5, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		p := newVictimPort()
		n := int(in.next()) % 33
		for i := 0; i < n; i++ {
			if err := p.InstallRule(in.rule(fmt.Sprintf("r%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var flows []netpkt.FlowKey
		for len(in) > 0 && len(flows) < 64 {
			flows = append(flows, in.flow())
		}
		check := func(stage string) {
			rules := p.Rules()
			for _, fl := range flows {
				if got, want := p.Classify(fl), linearClassify(rules, fl); got != want {
					t.Fatalf("%s: Classify(%v) = %v, want %v (rules: %v)", stage, fl, got, want, rules)
				}
			}
		}
		check("installed")
		if n > 0 {
			if err := p.RemoveRule(fmt.Sprintf("r%d", len(data)%n)); err != nil {
				t.Fatal(err)
			}
			check("after remove")
		}
	})
}

package stellar_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation and route-server scaling benches. Each benchmark runs the same
// driver as cmd/stellar-lab (at CI-friendly scale) and reports the
// headline metric of its experiment as a custom unit alongside the usual
// ns/op, so `go test -bench=. -benchmem` regenerates the evaluation.

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/core"
	"stellar/internal/experiments"
	"stellar/internal/fabric"
	"stellar/internal/hw"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitigation"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// BenchmarkTable1Matrix regenerates Table 1 (qualitative comparison).
func BenchmarkTable1Matrix(b *testing.B) {
	var adv int
	for i := 0; i < b.N; i++ {
		adv = mitigation.AdvantageCount()[mitigation.AdvancedBlackholing]
	}
	b.ReportMetric(float64(adv), "advbh-advantages")
}

// BenchmarkFig2cCollateral regenerates Figure 2(c): the collateral-
// damage port-share series around the memcached attack.
func BenchmarkFig2cCollateral(b *testing.B) {
	cfg := experiments.DefaultFig2cConfig()
	var r experiments.Fig2cResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2c(cfg)
	}
	b.ReportMetric(r.ShareDuring("11211")*100, "attackport-share-%")
}

// BenchmarkFig3aPortDist regenerates Figure 3(a): UDP source ports of
// blackholed traffic with Welch significance.
func BenchmarkFig3aPortDist(b *testing.B) {
	cfg := experiments.DefaultFig3aConfig()
	var r experiments.Fig3aResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig3a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	sig := 0
	for _, p := range r.Ports {
		if p.Significant {
			sig++
		}
	}
	b.ReportMetric(float64(sig), "significant-ports")
}

// BenchmarkFig3bPolicyUsage regenerates Figure 3(b).
func BenchmarkFig3bPolicyUsage(b *testing.B) {
	cfg := experiments.DefaultFig3bConfig()
	cfg.Announcements = 20000
	var r experiments.Fig3bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3b(cfg)
	}
	b.ReportMetric(r.Share["All"]*100, "all-policy-%")
}

// BenchmarkFig3cRTBHAttack regenerates Figure 3(c): the booter attack
// under RTBH. Metric: residual attack traffic after the blackhole.
func BenchmarkFig3cRTBHAttack(b *testing.B) {
	cfg := experiments.DefaultFig3cConfig()
	cfg.Members = 120
	var r experiments.Fig3cResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig3c(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.ResidualBps/1e6, "residual-Mbps")
}

// BenchmarkFig9Scaling regenerates Figure 9's three feasibility grids by
// allocating on the TCAM model.
func BenchmarkFig9Scaling(b *testing.B) {
	cfg := experiments.DefaultFig9Config()
	cfg.N = 2
	var r experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(cfg)
	}
	ok := 0
	for _, g := range r.Grids {
		for _, c := range g.Cells {
			if c == "OK" {
				ok++
			}
		}
	}
	b.ReportMetric(float64(ok), "feasible-cells")
}

// BenchmarkFig10aCPUModel regenerates Figure 10(a): the CPU regression
// and the sustainable update rate at the 15% cap.
func BenchmarkFig10aCPUModel(b *testing.B) {
	cfg := experiments.DefaultFig10aConfig()
	var r experiments.Fig10aResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxRateAtCap, "updates-per-s-at-cap")
}

// BenchmarkFig10bQueueWait regenerates Figure 10(b): the waiting-time
// CDF of the controller's token-bucket queue at the 4/s limit.
func BenchmarkFig10bQueueWait(b *testing.B) {
	cfg := experiments.DefaultFig10bConfig()
	cfg.DurationSec = 1800
	var r experiments.Fig10bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10b(cfg)
	}
	b.ReportMetric(r.Curves[0].ECDF.P(1)*100, "pct-under-1s")
}

// BenchmarkFig10cStellarAttack regenerates Figure 10(c): the booter
// attack under Stellar. Metric: residual traffic after the drop phase.
func BenchmarkFig10cStellarAttack(b *testing.B) {
	cfg := experiments.DefaultFig10cConfig()
	cfg.Members = 120
	var r experiments.Fig10cResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10c(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.FinalBps/1e6, "residual-Mbps")
	b.ReportMetric(r.ShapedBps/1e6, "shaped-Mbps")
}

// BenchmarkSec52Functionality regenerates the Section 5.2 lab check.
func BenchmarkSec52Functionality(b *testing.B) {
	var r experiments.Sec52Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Sec52(9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BenignDeliveredBps/1e6, "benign-Mbps")
}

// ---------------------------------------------------------------------
// Ablation benches: design choices worth ablating.

// BenchmarkAblationEgressVsIngress compares the paper's egress filtering
// placement against ingress placement on a capacity-constrained small
// IXP: with egress filtering the attack crosses the platform core before
// dying, so a small core congests; ingress filtering (modeled as
// dropping at the source ports, i.e. before the core) does not. Metric:
// benign traffic delivered under each placement.
func BenchmarkAblationEgressVsIngress(b *testing.B) {
	target := netip.MustParseAddr("100.64.0.10")
	rng := stats.NewRand(1)
	peers := traffic.MakePeers(20)
	attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 8e9, 0, 1<<30, rng)
	attack.RampTicks = 0
	web := traffic.NewWebService(target, peers[:4], 4e8, rng)

	run := func(ingress bool) float64 {
		fab := fabric.New()
		fab.PlatformCapacityBps = 2e9 // small IXP: core is the bottleneck
		mac := netpkt.MustParseMAC("02:00:00:00:00:99")
		port := fabric.NewPort("victim", mac, 1e9)
		m := fabric.MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 123
		_ = port.InstallRule(&fabric.Rule{ID: "drop", Match: m, Action: fabric.ActionDrop})
		_ = fab.AddPort(port)

		offers := append(attack.Offers(10, 1), web.Offers(10, 1)...)
		if ingress {
			// Ingress placement: matching traffic never reaches the core.
			var kept []fabric.Offer
			for _, o := range offers {
				if !(o.Flow.Proto == netpkt.ProtoUDP && o.Flow.SrcPort == 123) {
					kept = append(kept, o)
				}
			}
			offers = kept
		}
		st, err := fab.Tick(fabric.TickOffers{"victim": offers}, 1)
		if err != nil {
			b.Fatal(err)
		}
		return st.TotalDeliveredBytes() * 8
	}

	var egress, ingress float64
	for i := 0; i < b.N; i++ {
		egress = run(false)
		ingress = run(true)
	}
	b.ReportMetric(egress/1e6, "egress-delivered-Mbps")
	b.ReportMetric(ingress/1e6, "ingress-delivered-Mbps")
}

// BenchmarkAblationQueueRate sweeps the change queue's dequeue limit and
// reports the p95 signal-to-config delay — the trade between switch CPU
// protection and mitigation reaction time.
func BenchmarkAblationQueueRate(b *testing.B) {
	cfg := experiments.DefaultFig10bConfig()
	cfg.DurationSec = 1800
	cfg.Rates = []float64{1, 2, 4.33, 8, 16}
	var r experiments.Fig10bResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10b(cfg)
	}
	for _, c := range r.Curves {
		b.ReportMetric(stats.Percentile(c.Waits, 95), fmt.Sprintf("p95s-at-%gps", c.Rate))
	}
}

// BenchmarkAblationAddPath measures the correctness cost of disabling
// ADD-PATH on the controller feed: with best-path-only delivery, a
// second member's blackholing rule for a shared prefix is lost. Metric:
// rules installed with and without ADD-PATH semantics.
func BenchmarkAblationAddPath(b *testing.B) {
	run := func(addPath bool) int {
		members := member.MakePopulation(member.PopulationConfig{N: 4, PortCapacityBps: 1e9, Seed: 2})
		// Two members share a delegated prefix.
		shared := netip.MustParsePrefix("100.99.0.0/24")
		members[0].Prefixes = append(members[0].Prefixes, shared)
		members[1].Prefixes = append(members[1].Prefixes, shared)
		x, err := ixp.Build(ixp.Config{
			ASN: 6695, BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
			Members: members, EnableStellar: true, QueueRate: 1000, QueueBurst: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		host := netip.MustParsePrefix("100.99.0.7/32")
		if err := x.Announce(members[0].Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(123)}); err != nil {
			b.Fatal(err)
		}
		if addPath {
			// Full feed: the second member's rule also arrives.
			if err := x.Announce(members[1].Name, host, nil, []core.RuleSpec{core.DropUDPSrcPort(53)}); err != nil {
				b.Fatal(err)
			}
		} else {
			// Best-path-only feed: the RS would suppress the non-best
			// announcement; the second rule never reaches the controller.
		}
		x.Mitigations.Process(x.Clock() + 10)
		return x.Mitigations.AppliedChanges()
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(with), "rules-with-addpath")
	b.ReportMetric(float64(without), "rules-without-addpath")
}

// BenchmarkAblationSignaling compares the two signaling transports of
// Section 4.2.1 end to end: in-band BGP extended communities (full wire
// marshal/unmarshal through a session pair) versus a direct API call
// (controller event injection). Metric: signals per second.
func BenchmarkAblationSignaling(b *testing.B) {
	prefix := netip.MustParsePrefix("100.10.10.10/32")
	spec := core.DropUDPSrcPort(123)
	ec, err := spec.Encode()
	if err != nil {
		b.Fatal(err)
	}
	attrs := bgp.PathAttrs{
		Origin:         bgp.OriginIGP,
		ASPath:         []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
		NextHop:        netip.MustParseAddr("80.81.192.10"),
		ExtCommunities: []bgp.ExtCommunity{ec},
	}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.PathPrefix{{Prefix: prefix}}}

	b.Run("bgp-extended-community", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire, err := bgp.Marshal(u, nil)
			if err != nil {
				b.Fatal(err)
			}
			msg, _, err := bgp.Unmarshal(wire, nil)
			if err != nil {
				b.Fatal(err)
			}
			got := msg.(*bgp.Update)
			if specs := core.SignalsFrom(&got.Attrs); len(specs) != 1 {
				b.Fatal("signal lost")
			}
		}
	})
	b.Run("direct-api", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if specs := core.SignalsFrom(&u.Attrs); len(specs) != 1 {
				b.Fatal("signal lost")
			}
		}
	})
}

// BenchmarkEdgeRouterAllocation measures the hardware model's admission
// control throughput (the per-change cost inside the network manager).
func BenchmarkEdgeRouterAllocation(b *testing.B) {
	router := hw.NewEdgeRouter(hw.DefaultEdgeRouterLimits(350, hw.RTBHUnitN))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		port := i % 350
		if err := router.Allocate(port, 1, 3); err != nil {
			b.Fatal(err)
		}
		if err := router.Release(port, 1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricEgress measures the data-plane classification rate of a
// port carrying 16 installed blackholing rules and 200 concurrent flows.
func BenchmarkFabricEgress(b *testing.B) {
	mac := netpkt.MustParseMAC("02:00:00:00:00:01")
	port := fabric.NewPort("victim", mac, 1e9)
	for i := 0; i < 16; i++ {
		m := fabric.MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = int32(1000 + i)
		_ = port.InstallRule(&fabric.Rule{ID: string(rune('a' + i)), Match: m, Action: fabric.ActionDrop})
	}
	offers := make([]fabric.Offer, 200)
	src := netip.MustParseAddr("198.51.100.1")
	dst := netip.MustParseAddr("100.10.10.10")
	for i := range offers {
		offers[i] = fabric.Offer{
			Flow: netpkt.FlowKey{Src: src, Dst: dst, Proto: netpkt.ProtoUDP,
				SrcPort: uint16(i), DstPort: 443},
			Bytes: 1e4, Packets: 10,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Egress(offers, 1)
	}
}

// ---------------------------------------------------------------------
// Fabric classifier benchmarks (the compiled-classifier tentpole).
//
// benchRules builds a blackholing-deployment-shaped rule set: mostly
// per-source-port drop rules (the amplification signatures of Figure
// 3a), plus destination-prefix and MAC rules, so every index of the
// compiled classifier carries load. The "linear-scan" series is the
// retained baseline — the seed's first-match scan over Port.Rules() —
// so the speedup of the compiled path is measured in-tree. The shape
// intentionally mirrors benchFabric in cmd/stellar-lab/bench.go so the
// archived JSON numbers track these benchmarks.

func benchRules(n int) []*fabric.Rule {
	rules := make([]*fabric.Rule, 0, n)
	for i := 0; i < n; i++ {
		m := fabric.MatchAll()
		switch i % 8 {
		case 6:
			m.DstIP = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 20, byte(i >> 8), byte(i)}), 32)
		case 7:
			mac := netpkt.MAC{0x02, 0x77, 0, 0, byte(i >> 8), byte(i)}
			m.SrcMAC = &mac
		default:
			m.Proto = netpkt.ProtoUDP
			m.SrcPort = int32(1000 + i)
		}
		rules = append(rules, &fabric.Rule{ID: fmt.Sprintf("r%04d", i), Match: m, Action: fabric.ActionDrop})
	}
	return rules
}

func benchFlows(n int) []netpkt.FlowKey {
	flows := make([]netpkt.FlowKey, n)
	for i := range flows {
		srcPort := uint16(40000 + i) // benign: no rule matches
		if i%4 == 0 {
			srcPort = uint16(1000 + i) // hits a drop rule
		}
		flows[i] = netpkt.FlowKey{
			SrcMAC:  netpkt.MAC{0x02, 0x10, 0, 0, 0, byte(i)},
			Src:     netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{100, 10, 10, 10}),
			Proto:   netpkt.ProtoUDP,
			SrcPort: srcPort,
			DstPort: 443,
		}
	}
	return flows
}

// BenchmarkFabricClassifier compares classification cost at growing
// rule counts: the retained linear-scan baseline against the compiled
// classifier. The acceptance bar is compiled ≥ 5x linear at 1024 rules.
func BenchmarkFabricClassifier(b *testing.B) {
	for _, n := range []int{16, 256, 1024} {
		port := fabric.NewPort("victim", netpkt.MustParseMAC("02:00:00:00:00:01"), 1e9)
		for _, r := range benchRules(n) {
			if err := port.InstallRule(r); err != nil {
				b.Fatal(err)
			}
		}
		flows := benchFlows(512)
		rules := port.Rules()
		b.Run(fmt.Sprintf("linear-scan/rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := flows[i%len(flows)]
				for _, r := range rules {
					if r.Match.Matches(f) {
						break
					}
				}
			}
		})
		b.Run(fmt.Sprintf("compiled/rules=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				port.Classify(flows[i%len(flows)])
			}
		})
	}
}

// BenchmarkFabricEgress1kRules measures a full egress tick against 1024
// installed rules with pre-hashed offers — the configuration the
// parallel IXP tick runs per port.
func BenchmarkFabricEgress1kRules(b *testing.B) {
	port := fabric.NewPort("victim", netpkt.MustParseMAC("02:00:00:00:00:01"), 1e9)
	for _, r := range benchRules(1024) {
		if err := port.InstallRule(r); err != nil {
			b.Fatal(err)
		}
	}
	flows := benchFlows(256)
	offers := make([]fabric.Offer, len(flows))
	for i, f := range flows {
		offers[i] = fabric.Offer{Flow: f, FlowHash: f.Hash(), Bytes: 1e4, Packets: 10}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Egress(offers, 1)
	}
}

// BenchmarkFabricParallelTick measures the platform tick across many
// member ports — the worker-pool fan-out the IXP simulation drives
// every tick.
func BenchmarkFabricParallelTick(b *testing.B) {
	const ports = 64
	fab := fabric.New()
	offers := make(fabric.TickOffers, ports)
	for p := 0; p < ports; p++ {
		name := fmt.Sprintf("AS%d", 64512+p)
		mac := netpkt.MAC{0x02, 0x20, 0, 0, byte(p >> 8), byte(p)}
		port := fabric.NewPort(name, mac, 1e9)
		for _, r := range benchRules(64) {
			if err := port.InstallRule(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := fab.AddPort(port); err != nil {
			b.Fatal(err)
		}
		flows := benchFlows(64)
		os := make([]fabric.Offer, len(flows))
		for i, f := range flows {
			f.SrcMAC = mac
			os[i] = fabric.Offer{Flow: f, FlowHash: f.Hash(), Bytes: 1e4, Packets: 10}
		}
		offers[name] = os
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fab.Tick(offers, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*ports)/b.Elapsed().Seconds(), "port-ticks/s")
}

// BenchmarkCompareMitigations regenerates the quantitative five-way
// comparison backing Table 1.
func BenchmarkCompareMitigations(b *testing.B) {
	cfg := experiments.DefaultCompareConfig()
	var r experiments.CompareResult
	for i := 0; i < b.N; i++ {
		r = experiments.CompareMitigations(cfg)
	}
	b.ReportMetric(r.Row(mitigation.AdvancedBlackholing).BenignDeliveredFrac*100, "advbh-benign-%")
	b.ReportMetric(r.Row(mitigation.RTBH).AttackResidualFrac*100, "rtbh-residual-%")
}

// BenchmarkCombinedTSS regenerates the Section 6 economics: Stellar as a
// scrubbing pre-filter.
func BenchmarkCombinedTSS(b *testing.B) {
	cfg := experiments.DefaultCompareConfig()
	var r experiments.CombinedTSSResult
	for i := 0; i < b.N; i++ {
		r = experiments.CombinedTSS(cfg)
	}
	b.ReportMetric(r.SavingsFrac*100, "scrub-cost-savings-%")
}

// ---------------------------------------------------------------------
// Route-server update-pipeline benchmarks (the sharded-RIB tentpole).
//
// The workload drives the update path from many concurrent peer
// sessions, each announcing batches of blackhole /32s — the attack-load
// shape of Section 5. "SingleLockBaseline" is the seed's pre-sharding
// design (bench_baseline_test.go): one global mutex over the whole
// pipeline, sort-based best-path on every change, one exported message
// per (peer, prefix). "ShardedParallel" is the current pipeline:
// lock-free import checks, per-shard RIB locks with cached best paths,
// batched per-peer exports.

const (
	benchPeers             = 100
	benchPrefixesPerUpdate = 10
)

func benchMakeUpdate(asn uint32, id int, c *uint32) *bgp.Update {
	u := &bgp.Update{Attrs: bgp.PathAttrs{
		Origin:      bgp.OriginIGP,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{asn}}},
		NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(id)}),
		Communities: []bgp.Community{bgp.CommunityBlackhole},
	}}
	for k := 0; k < benchPrefixesPerUpdate; k++ {
		addr := netip.AddrFrom4([4]byte{100, byte(id), byte(*c >> 8), byte(*c)})
		*c++
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: netip.PrefixFrom(addr, 32)})
	}
	return u
}

// BenchmarkRouteServerSingleLockBaseline drives the seed's single-lock
// pipeline replica: record its updates/s next to ShardedParallel's to see
// the speedup.
func BenchmarkRouteServerSingleLockBaseline(b *testing.B) {
	rs := newSeedRouteServer(6695, netip.MustParseAddr("80.81.193.66"))
	for i := 0; i < benchPeers; i++ {
		rs.addPeer(fmt.Sprintf("AS%d", 64512+i), uint32(64512+i))
	}
	var nextPeer atomic.Int64
	b.SetParallelism(4) // many sessions per core, like a real route server
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextPeer.Add(1)-1) % benchPeers
		name := fmt.Sprintf("AS%d", 64512+id)
		var c uint32
		for pb.Next() {
			u := benchMakeUpdate(uint32(64512+id), id, &c)
			if _, err := rs.handleUpdate(name, u); err != nil {
				panic(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
	b.ReportMetric(float64(b.N*benchPrefixesPerUpdate)/b.Elapsed().Seconds(), "prefixes/s")
}

// BenchmarkRouteServerShardedParallel is the sharded pipeline under the
// same 100-peer concurrent load.
func BenchmarkRouteServerShardedParallel(b *testing.B) {
	rs := routeserver.New(routeserver.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
	})
	cfgs := make([]routeserver.PeerConfig, benchPeers)
	for i := range cfgs {
		cfgs[i] = routeserver.PeerConfig{
			Name:  fmt.Sprintf("AS%d", 64512+i),
			ASN:   uint32(64512 + i),
			BGPID: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
		}
		if err := rs.AddPeer(cfgs[i]); err != nil {
			b.Fatal(err)
		}
	}
	var nextPeer atomic.Int64
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextPeer.Add(1)-1) % benchPeers
		cfg := cfgs[id]
		var c uint32
		for pb.Next() {
			u := benchMakeUpdate(cfg.ASN, id, &c)
			if _, _, err := rs.HandleUpdateBatch(cfg.Name, u); err != nil {
				panic(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
	b.ReportMetric(float64(b.N*benchPrefixesPerUpdate)/b.Elapsed().Seconds(), "prefixes/s")
}

// BenchmarkRouteServerWithdrawChurn measures announce/withdraw cycles —
// the blackholing signal churn of an attack ramp — on the sharded
// pipeline.
func BenchmarkRouteServerWithdrawChurn(b *testing.B) {
	const peers = 32
	rs := routeserver.New(routeserver.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
	})
	cfgs := make([]routeserver.PeerConfig, peers)
	for i := range cfgs {
		cfgs[i] = routeserver.PeerConfig{
			Name:  fmt.Sprintf("AS%d", 64512+i),
			ASN:   uint32(64512 + i),
			BGPID: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}),
		}
		if err := rs.AddPeer(cfgs[i]); err != nil {
			b.Fatal(err)
		}
	}
	var nextPeer atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(nextPeer.Add(1)-1) % peers
		cfg := cfgs[id]
		var c uint32
		for pb.Next() {
			addr := netip.AddrFrom4([4]byte{100, byte(id), byte(c >> 8), byte(c)})
			c++
			p := netip.PrefixFrom(addr, 32)
			u := &bgp.Update{
				Attrs: bgp.PathAttrs{
					Origin:      bgp.OriginIGP,
					ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{cfg.ASN}}},
					NextHop:     netip.AddrFrom4([4]byte{80, 81, 192, byte(id)}),
					Communities: []bgp.Community{bgp.CommunityBlackhole},
				},
				NLRI: []bgp.PathPrefix{{Prefix: p}},
			}
			if _, _, err := rs.HandleUpdateBatch(cfg.Name, u); err != nil {
				panic(err)
			}
			w := &bgp.Update{Withdrawn: []bgp.PathPrefix{{Prefix: p}}}
			if _, _, err := rs.HandleUpdateBatch(cfg.Name, w); err != nil {
				panic(err)
			}
		}
	})
}

// BenchmarkRIBParallel isolates the sharded table: parallel AddWithBest /
// RemoveWithBest / Best across a wide prefix space, at one shard (the
// old single-lock layout) and at the default shard count.
func BenchmarkRIBParallel(b *testing.B) {
	for _, shards := range []int{1, rib.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tbl := rib.NewSharded(shards)
			attrs := bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512}}},
				NextHop: netip.MustParseAddr("192.0.2.1"),
			}
			var nextWorker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := int(nextWorker.Add(1) - 1)
				var c uint32
				for pb.Next() {
					addr := netip.AddrFrom4([4]byte{10, byte(w), byte(c >> 8), byte(c)})
					c++
					key := rib.PathKey{Prefix: netip.PrefixFrom(addr, 32), Peer: "p", PathID: uint32(w)}
					tbl.AddWithBest(key, 64512, attrs)
					tbl.Best(key.Prefix)
					tbl.RemoveWithBest(key)
				}
			})
		})
	}
}

// ---------------------------------------------------------------------
// Scenario-pipeline benchmarks (the sharded flow-monitoring tentpole).
//
// The workload is the paper's booter shape at multi-victim scale: every
// victim port carries an NTP amplification attack plus benign web
// traffic from a shared peer pool. "Baseline" is the retained
// pre-sharding pipeline (bench_baseline_test.go): N sequential
// single-victim loops, fresh offer slices per tick, a materialized
// DeliveredByFlow map per port tick, one map-based collector record per
// delivered flow and a map-walk active-peer count per tick.
// "ScenarioPipeline" is the live multi-victim engine: one parallel
// fabric pass per tick streaming delivered flows into per-worker
// collector shards, reused offer buffers and zero allocations per
// record on the observe path. Both run at GOMAXPROCS=4 (the acceptance
// configuration; the bar is pipeline >= 5x baseline).

const (
	scenarioBenchVictims = 4
	scenarioBenchPeers   = 48
	scenarioBenchTicks   = 40
)

// scenarioBenchSetup wires the shared IXP and per-victim sources for
// both the benchmarks and the pipeline-vs-baseline cross-check test.
func scenarioBenchSetup(tb testing.TB) (*ixp.IXP, []*member.Member, [][]ixp.Source) {
	tb.Helper()
	members := member.MakePopulation(member.PopulationConfig{
		N: scenarioBenchVictims + scenarioBenchPeers, HonoringFraction: 0.3,
		PortCapacityBps: 1e9, Seed: 9,
	})
	x, err := ixp.Build(ixp.Config{
		ASN:              6695,
		BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		Members:          members,
	})
	if err != nil {
		tb.Fatal(err)
	}
	peers := ixp.PeersOf(members[scenarioBenchVictims:])
	sources := make([][]ixp.Source, scenarioBenchVictims)
	for v := 0; v < scenarioBenchVictims; v++ {
		rng := stats.NewRand(uint64(31 + v))
		target := members[v].Prefixes[0].Addr().Next()
		attack := traffic.NewAttack(traffic.VectorNTP, target, peers, 2e9, 0, 1<<30, rng)
		attack.RampTicks = 0
		web := traffic.NewWebService(target, peers[:12], 2e8, rng)
		sources[v] = []ixp.Source{attack, web}
	}
	return x, members, sources
}

// BenchmarkScenarioPipeline measures the live multi-victim engine:
// end-to-end scenario ticks per second (each tick serves every victim).
func BenchmarkScenarioPipeline(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	x, members, sources := scenarioBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var delivered float64
	for i := 0; i < b.N; i++ {
		victims := make([]ixp.Victim, scenarioBenchVictims)
		for v := range victims {
			victims[v] = ixp.Victim{Port: members[v].Name, Sources: sources[v]}
		}
		sc := &ixp.Scenario{IXP: x, Ticks: scenarioBenchTicks, Dt: 1, Victims: victims}
		series, err := sc.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		delivered = 0
		for _, s := range series {
			for _, smp := range s.Samples {
				delivered += smp.DeliveredBps / 8
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*scenarioBenchTicks)/b.Elapsed().Seconds(), "ticks/s")
	b.ReportMetric(delivered, "delivered-bytes")
}

// BenchmarkScenarioPipelineBaseline runs the identical workload through
// the frozen pre-sharding replica (seedScenarioRun).
func BenchmarkScenarioPipelineBaseline(b *testing.B) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	x, members, sources := scenarioBenchSetup(b)
	victims := make([]seedScenarioVictim, scenarioBenchVictims)
	for v := range victims {
		victims[v] = seedScenarioVictim{port: members[v].Name, sources: sources[v]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var delivered float64
	for i := 0; i < b.N; i++ {
		var err error
		delivered, err = seedScenarioRun(x, victims, scenarioBenchTicks, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*scenarioBenchTicks)/b.Elapsed().Seconds(), "ticks/s")
	b.ReportMetric(delivered, "delivered-bytes")
}

// TestScenarioPipelineMatchesBaseline cross-checks the two engines on
// the bench workload: identical delivered-byte totals, so the speedup
// is measured on equal work.
func TestScenarioPipelineMatchesBaseline(t *testing.T) {
	x1, members1, sources1 := scenarioBenchSetup(t)
	victims := make([]ixp.Victim, scenarioBenchVictims)
	for v := range victims {
		victims[v] = ixp.Victim{Port: members1[v].Name, Sources: sources1[v]}
	}
	sc := &ixp.Scenario{IXP: x1, Ticks: 10, Dt: 1, Victims: victims}
	series, err := sc.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var livSum float64
	for _, s := range series {
		for _, smp := range s.Samples {
			livSum += smp.DeliveredBps / 8
		}
	}

	x2, members2, sources2 := scenarioBenchSetup(t)
	seedVictims := make([]seedScenarioVictim, scenarioBenchVictims)
	for v := range seedVictims {
		seedVictims[v] = seedScenarioVictim{port: members2[v].Name, sources: sources2[v]}
	}
	seedSum, err := seedScenarioRun(x2, seedVictims, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := livSum - seedSum; diff > 1e-6*seedSum || diff < -1e-6*seedSum {
		t.Fatalf("pipeline delivered %v bytes, baseline %v", livSum, seedSum)
	}
}

// benchReplayDump renders updates MRT BGP4MP records across peers
// announcing blackhole /32s, the BENCH_bgp.json replay workload at
// go-test scale.
func benchReplayDump(updates, peers, prefixesPer int) []byte {
	base := time.Unix(1700000000, 0)
	localIP := netip.MustParseAddr("80.81.192.1")
	var dump []byte
	var err error
	var c uint32
	for i := 0; i < updates; i++ {
		id := i % peers
		asn := uint32(64512 + id)
		peerIP := netip.AddrFrom4([4]byte{80, 81, 192, byte(id)})
		u := &bgp.Update{Attrs: bgp.PathAttrs{
			Origin:      bgp.OriginIGP,
			ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{asn}}},
			NextHop:     peerIP,
			Communities: []bgp.Community{bgp.CommunityBlackhole},
		}}
		for k := 0; k < prefixesPer; k++ {
			addr := netip.AddrFrom4([4]byte{100, byte(id), byte(c >> 8), byte(c)})
			c++
			u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: netip.PrefixFrom(addr, 32)})
		}
		dump, err = bgppipe.AppendMRTMessage(dump, base.Add(time.Duration(i)*time.Millisecond),
			asn, 6695, peerIP, localIP, u, nil)
		if err != nil {
			panic(err)
		}
	}
	return dump
}

// BenchmarkBGPRoundtrip measures the wire codec: one parse + marshal
// roundtrip of a representative UPDATE per iteration.
func BenchmarkBGPRoundtrip(b *testing.B) {
	u := &bgp.Update{Attrs: bgp.PathAttrs{
		Origin:      bgp.OriginIGP,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{64512, 65000, 65100}}},
		NextHop:     netip.MustParseAddr("80.81.192.12"),
		Communities: []bgp.Community{bgp.CommunityBlackhole, bgp.MakeCommunity(6695, 666)},
	}}
	for i := 0; i < 8; i++ {
		addr := netip.AddrFrom4([4]byte{100, 10, byte(i), 0})
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: netip.PrefixFrom(addr, 24)})
	}
	wire, err := bgp.Marshal(u, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, _, err := bgp.Unmarshal(wire, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bgp.Marshal(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkBGPReplay measures the replay path end to end: an in-memory
// MRT capture streamed through the bgppipe scanner into a sharded
// route-server RIB — the workload behind the BENCH_bgp.json bar.
func BenchmarkBGPReplay(b *testing.B) {
	const replayUpdates, replayPeers, prefixesPer = 2000, 32, 8
	dump := benchReplayDump(replayUpdates, replayPeers, prefixesPer)
	b.ReportAllocs()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		rs := routeserver.New(routeserver.Config{
			ASN:              6695,
			BlackholeNextHop: netip.MustParseAddr("80.81.193.66"),
		})
		apply := bgppipe.FeedRouteServer(rs, nil)
		sc := bgppipe.NewMRTScanner(bytes.NewReader(dump))
		for {
			rec, err := sc.Next()
			if err != nil {
				break
			}
			if err := apply(rec); err != nil {
				b.Fatal(err)
			}
			updates++
		}
	}
	if updates != b.N*replayUpdates {
		b.Fatalf("replayed %d updates, want %d", updates, b.N*replayUpdates)
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
	b.ReportMetric(float64(updates*prefixesPer)/b.Elapsed().Seconds(), "prefixes/s")
}

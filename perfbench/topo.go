package main

import (
	"fmt"
	"net/netip"

	"stellar/internal/bgp"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
)

// The exchange every workload builds on: route server AS, its BGP
// identifier and the RTBH next hop.
const ixpASN = 6695

var (
	rsBGPID     = netip.MustParseAddr("80.81.192.1")
	blackholeNH = netip.MustParseAddr("80.81.193.66")
)

// newMember returns member number idx of a workload, named "AS<asn>" as
// the listen stage names sessions, with a 10 Gbps port.
func newMember(asn uint32, idx int, prefixes ...netip.Prefix) *member.Member {
	return &member.Member{
		Name:            fmt.Sprintf("AS%d", asn),
		ASN:             asn,
		MAC:             netpkt.MAC{0x02, 0x50, 0, 0, byte(idx >> 8), byte(idx)},
		BGPID:           netip.AddrFrom4([4]byte{80, 81, 192, byte(10 + idx)}),
		PortCapacityBps: 10e9,
		Prefixes:        prefixes,
	}
}

// buildIXP builds an exchange with the mitigation control plane enabled.
// unthrottled lifts the change queue's hardware pacing so the
// measurement is software, not the modelled 4.33 changes/s.
func buildIXP(members []*member.Member, unthrottled bool) (*ixp.IXP, error) {
	cfg := ixp.Config{
		ASN:              ixpASN,
		BlackholeNextHop: blackholeNH,
		Members:          members,
		EnableStellar:    true,
	}
	if unthrottled {
		cfg.QueueRate = 1e12
		cfg.QueueBurst = 1 << 20
	}
	return ixp.Build(cfg)
}

// tablePrefix is prefix j of the preloaded table: /24s in
// 100.96.0.0/11, 256 per origin block.
func tablePrefix(j int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(96 + j/256), byte(j % 256), 0}), 24)
}

// originOf returns the origin AS registered for table prefix j's block
// and the block itself.
func originOf(j int) (uint32, netip.Prefix) {
	b := j / 256
	return uint32(65100 + b), netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(96 + b), 0, 0}), 16)
}

// preloadUpdate is one UPDATE of the preloaded table.
type preloadUpdate struct {
	peer string
	u    *bgp.Update
}

// registerOrigins registers in the exchange's IRR the origin of every
// block of a table of nPrefixes prefixes.
func registerOrigins(x *ixp.IXP, nPrefixes int) {
	for b := 0; b*256 < nPrefixes; b++ {
		origin, block := originOf(b * 256)
		x.Policy.IRR.Register(origin, block)
	}
}

// preloadTable generates a table of nPrefixes prefixes, each announced
// by perPrefix distinct members through the AS path [member, origin];
// each member announces a block's prefixes in one UPDATE. It returns the
// updates and the number of paths they install. The exchange must have
// registered the origins (registerOrigins).
func preloadTable(members []*member.Member, nPrefixes, perPrefix int, rng *stats.Rand) ([]preloadUpdate, int) {
	if perPrefix > len(members) {
		perPrefix = len(members)
	}
	blocks := (nPrefixes + 255) / 256
	nlri := make([][][]bgp.PathPrefix, len(members)) // [member][block]
	for m := range nlri {
		nlri[m] = make([][]bgp.PathPrefix, blocks)
	}
	for j := 0; j < nPrefixes; j++ {
		for _, m := range rng.Perm(len(members))[:perPrefix] {
			nlri[m][j/256] = append(nlri[m][j/256], bgp.PathPrefix{Prefix: tablePrefix(j)})
		}
	}
	var out []preloadUpdate
	for m, mem := range members {
		for b, pp := range nlri[m] {
			if len(pp) == 0 {
				continue
			}
			origin, _ := originOf(b * 256)
			med := uint32(rng.Intn(100))
			out = append(out, preloadUpdate{peer: mem.Name, u: &bgp.Update{
				Attrs: bgp.PathAttrs{
					Origin:  bgp.OriginIGP,
					ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{mem.ASN, origin}}},
					NextHop: mem.BGPID,
					MED:     &med,
				},
				NLRI: pp,
			}})
		}
	}
	return out, nPrefixes * perPrefix
}

// announcement builds a member's single-path announcement of prefixes.
func announcement(m *member.Member, prepend int, med uint32, prefixes ...netip.Prefix) *bgp.Update {
	asns := make([]uint32, 1+prepend)
	for i := range asns {
		asns[i] = m.ASN
	}
	u := &bgp.Update{Attrs: bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop: m.BGPID,
		MED:     &med,
	}}
	for _, p := range prefixes {
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: p})
	}
	return u
}

func withdrawal(prefixes ...netip.Prefix) *bgp.Update {
	u := &bgp.Update{}
	for _, p := range prefixes {
		u.Withdrawn = append(u.Withdrawn, bgp.PathPrefix{Prefix: p})
	}
	return u
}

// host returns the i-th address of p as a /32.
func host(p netip.Prefix, i int) netip.Prefix {
	a := p.Addr().As4()
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	v += uint32(i)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), 32)
}

package fabric

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"stellar/internal/netpkt"
)

// This file implements the compiled flow classifier behind Port. The
// seed design scanned every installed rule linearly under the port mutex
// for every offered flow — the per-packet slow path Section 4.2.1 holds
// against software Flowspec processing. Instead, InstallRule/RemoveRule
// now compile the rule set into an immutable classifier published via
// atomic.Pointer, so Classify/Egress/EgressPacket run lock-free while
// rule management stays serialized on the port mutex (copy-on-write).
//
// The compiled form indexes every rule under its most selective
// criterion, exactly once:
//
//   - exact-match tables keyed by (proto, dst-port) and (proto,
//     src-port), with proto 0 buckets for any-proto port rules;
//   - per-field exact-match prefix tables for DstIP and SrcIP, keyed by
//     the masked prefix and probed once per prefix length present;
//   - a SrcMAC exact-match index;
//   - a short residual list for rules too wildcarded to index
//     (MatchAll, proto-only).
//
// Lookup probes only the structures that hold a rule the flow header
// can reach, re-verifies candidates with Match.Matches (indexes are
// pre-filters, never authorities), and keeps the candidate with the
// lowest install order — preserving the first-match-priority semantics
// of the linear scan. Candidate lists are sorted by install order so
// each list can stop as soon as its next priority cannot beat the best
// match found so far. Port, MAC and v4 prefix keys are integers.

// candidate is one indexed rule plus its install order (lower wins).
type candidate struct {
	rule *Rule
	pri  int
}

const noMatch = int(^uint(0) >> 1) // max int: "no rule yet"

// portIndex is one port field's exact-match table, keyed by portKey.
// proto 0 holds rules that wildcard the protocol but pin a port;
// anyProto records whether any exist, so lookups skip that probe
// otherwise.
type portIndex struct {
	byKey    map[uint32][]candidate
	anyProto bool
}

func portKey(proto netpkt.IPProto, port uint16) uint32 {
	return uint32(proto)<<16 | uint32(port)
}

func (x *portIndex) add(proto netpkt.IPProto, port int32, c candidate) {
	if x.byKey == nil {
		x.byKey = make(map[uint32][]candidate)
	}
	k := portKey(proto, uint16(port))
	x.byKey[k] = append(x.byKey[k], c)
	x.anyProto = x.anyProto || proto == 0
}

func (x *portIndex) consider(f netpkt.FlowKey, port uint16, best *Rule, bestPri int) (*Rule, int) {
	if x.byKey == nil {
		return best, bestPri
	}
	best, bestPri = considerList(x.byKey[portKey(f.Proto, port)], f, best, bestPri)
	if x.anyProto && f.Proto != 0 {
		best, bestPri = considerList(x.byKey[portKey(0, port)], f, best, bestPri)
	}
	return best, bestPri
}

// prefixIndex is one address field's prefix rules: an exact-match table
// per address family keyed by the masked prefix, plus the distinct
// prefix lengths present. A lookup masks the flow address to each
// present length and probes once per length.
type prefixIndex struct {
	v4     map[uint64][]candidate // v4Key(masked address, bits)
	v4Lens []int
	v6     map[netip.Prefix][]candidate
	v6Lens []int
}

// v4Key packs a v4 address masked to bits, plus bits, into one integer.
func v4Key(addr uint32, bits int) uint64 {
	return uint64(addr&^(^uint32(0)>>bits))<<8 | uint64(bits)
}

func v4Uint(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func (x *prefixIndex) add(p netip.Prefix, c candidate) {
	bits := p.Bits()
	if p.Addr().Is4() {
		if x.v4 == nil {
			x.v4 = make(map[uint64][]candidate)
		}
		k := v4Key(v4Uint(p.Addr()), bits)
		x.v4[k] = append(x.v4[k], c)
		x.v4Lens = addLen(x.v4Lens, bits)
		return
	}
	if x.v6 == nil {
		x.v6 = make(map[netip.Prefix][]candidate)
	}
	k := p.Masked()
	x.v6[k] = append(x.v6[k], c)
	x.v6Lens = addLen(x.v6Lens, bits)
}

// addLen adds bits to the set lens. Probe order does not matter:
// priorities, not probe order, pick the winner.
func addLen(lens []int, bits int) []int {
	if slices.Contains(lens, bits) {
		return lens
	}
	return append(lens, bits)
}

func (x *prefixIndex) consider(f netpkt.FlowKey, addr netip.Addr, best *Rule, bestPri int) (*Rule, int) {
	if addr.Is4() {
		if x.v4 == nil {
			return best, bestPri
		}
		a := v4Uint(addr)
		for _, bits := range x.v4Lens {
			best, bestPri = considerList(x.v4[v4Key(a, bits)], f, best, bestPri)
		}
		return best, bestPri
	}
	if x.v6 == nil || !addr.IsValid() {
		return best, bestPri
	}
	for _, bits := range x.v6Lens {
		k, _ := addr.Prefix(bits)
		best, bestPri = considerList(x.v6[k], f, best, bestPri)
	}
	return best, bestPri
}

// macKey packs a MAC address into one integer.
func macKey(m netpkt.MAC) uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// classifier is an immutable compiled view of a port's rule set.
type classifier struct {
	rules      []*Rule // install order (the authoritative priority)
	shapeRules []*Rule // subset with Action == ActionShape, install order

	dstPort, srcPort portIndex
	dstIP, srcIP     prefixIndex
	bySrcMAC         map[uint64][]candidate
	residual         []candidate
}

// compile builds the immutable classifier for rules (in install order).
// Candidate lists are appended in install order, so they come out
// sorted by priority; the early exit in considerList relies on it.
func compile(rules []*Rule) *classifier {
	c := &classifier{rules: rules}
	for pri, r := range rules {
		if r.Action == ActionShape {
			c.shapeRules = append(c.shapeRules, r)
		}
		cand := candidate{rule: r, pri: pri}
		m := r.Match
		switch {
		case m.DstPort != AnyPort:
			c.dstPort.add(m.Proto, m.DstPort, cand)
		case m.SrcPort != AnyPort:
			c.srcPort.add(m.Proto, m.SrcPort, cand)
		case m.DstIP.IsValid():
			c.dstIP.add(m.DstIP, cand)
		case m.SrcIP.IsValid():
			c.srcIP.add(m.SrcIP, cand)
		case m.SrcMAC != nil:
			if c.bySrcMAC == nil {
				c.bySrcMAC = make(map[uint64][]candidate)
			}
			k := macKey(*m.SrcMAC)
			c.bySrcMAC[k] = append(c.bySrcMAC[k], cand)
		default:
			c.residual = append(c.residual, cand)
		}
	}
	return c
}

// considerList scans one sorted candidate list, updating (best, bestPri)
// with the first full match that beats the current best. Because the
// list is priority-sorted it stops at the first candidate that cannot
// win.
func considerList(cands []candidate, f netpkt.FlowKey, best *Rule, bestPri int) (*Rule, int) {
	for _, cd := range cands {
		if cd.pri >= bestPri {
			return best, bestPri
		}
		if cd.rule.Match.Matches(f) {
			return cd.rule, cd.pri
		}
	}
	return best, bestPri
}

// classify runs the compiled lookup: every index the flow can reach,
// first-match (lowest install order) wins, nil for the default
// forwarding queue. It is read-only and safe for unlimited concurrency.
func (c *classifier) classify(f netpkt.FlowKey) *Rule {
	if len(c.rules) == 0 {
		// Rule-free port: the common case across a large member
		// population.
		return nil
	}
	best, bestPri := c.dstPort.consider(f, f.DstPort, nil, noMatch)
	best, bestPri = c.srcPort.consider(f, f.SrcPort, best, bestPri)
	best, bestPri = c.dstIP.consider(f, f.Dst, best, bestPri)
	best, bestPri = c.srcIP.consider(f, f.Src, best, bestPri)
	if c.bySrcMAC != nil {
		best, bestPri = considerList(c.bySrcMAC[macKey(f.SrcMAC)], f, best, bestPri)
	}
	best, _ = considerList(c.residual, f, best, bestPri)
	return best
}

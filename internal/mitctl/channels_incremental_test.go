package mitctl

import (
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
)

// snapshotDiffChannel is the community channel's original whole-table
// algorithm, kept as the oracle for the per-batch touched-key diff: it
// folds a batch into the RIB, snapshots the whole table and diffs it
// against the previous batch's snapshot. Reconciliation and the
// controller calls are the production ones.
type snapshotDiffChannel struct {
	*CommunityChannel
	prev rib.Snapshot
}

func (r *snapshotDiffChannel) HandleEvents(evs []routeserver.ControllerEvent, now float64) {
	ch := r.CommunityChannel
	ch.mu.Lock()
	for _, ev := range evs {
		for _, prefix := range ev.Withdrawn {
			key := rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}
			if !ch.rib.Remove(key) && ev.PathID != 0 {
				if p := ch.rib.FindByPathID(prefix, ev.PathID); p != nil {
					ch.rib.Remove(p.Key)
				}
			}
		}
		for _, prefix := range ev.Announced {
			ch.rib.Add(rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}, ev.PeerAS, ev.Attrs)
		}
	}
	next := ch.rib.Snapshot()
	diff := rib.DiffSnapshots(r.prev, next)
	r.prev = next
	plan := ch.planLocked(diff)
	ch.mu.Unlock()
	ch.execute(plan, now)
}

// oracleMembers is the member count of the oracle test's exchange.
const oracleMembers = 3

// oracleStream generates a seeded random stream of route-server event
// batches over a small key space, so that keys recur within and across
// batches.
type oracleStream struct {
	rng   *stats.Rand
	attrs []bgp.PathAttrs
	// announced remembers past announcements, replayed unchanged as
	// TTL refreshes.
	announced []routeserver.ControllerEvent
}

func newOracleStream(t *testing.T, seed uint64, portalID uint32) *oracleStream {
	return &oracleStream{
		rng: stats.NewRand(seed),
		attrs: []bgp.PathAttrs{
			{}, // no signal: a plain route
			signalAttrs(t, core.DropUDPSrcPort(123)),
			signalAttrs(t, core.ShapeUDPSrcPort(123, 200e6)),
			signalAttrs(t, core.DropProto(netpkt.ProtoUDP)),
			signalAttrs(t, core.DropUDPSrcPort(123), core.DropProto(netpkt.ProtoUDP)),
			signalAttrs(t, core.DropUDPSrcPort(123), core.DropUDPSrcPort(123)),
			signalAttrs(t, core.Custom(portalID)),
			signalAttrs(t, core.Custom(portalID+100)), // never defined
		},
	}
}

// oraclePrefix returns member i's k-th prefix; k == 4 is another member's
// address space, which IRR validation rejects.
func oraclePrefix(i, k int) netip.Prefix {
	if k == 4 {
		i = (i + 1) % oracleMembers
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(i), 0, byte(10 + k)}), 32)
}

func (s *oracleStream) prefixes(member int) []netip.Prefix {
	n := 1 + s.rng.Intn(3)
	out := make([]netip.Prefix, n)
	for j := range out {
		out[j] = oraclePrefix(member, s.rng.Intn(5))
	}
	return out
}

func announceEv(member int, pathID uint32, attrs bgp.PathAttrs, ps ...netip.Prefix) routeserver.ControllerEvent {
	return routeserver.ControllerEvent{
		Peer: memberName(member), PeerAS: uint32(64512 + member), PathID: pathID,
		Announced: ps, Attrs: attrs,
	}
}

func withdrawEv(peer string, pathID uint32, ps ...netip.Prefix) routeserver.ControllerEvent {
	return routeserver.ControllerEvent{Peer: peer, PathID: pathID, Withdrawn: ps}
}

// sessionLoss withdraws every prefix member could have announced on
// pathID, as the route server does when the session drops.
func sessionLoss(member int, pathID uint32) routeserver.ControllerEvent {
	var ps []netip.Prefix
	for k := 0; k < 5; k++ {
		ps = append(ps, oraclePrefix(member, k))
	}
	return withdrawEv(memberName(member), pathID, ps...)
}

func (s *oracleStream) event() routeserver.ControllerEvent {
	member := s.rng.Intn(oracleMembers)
	pathID := uint32(s.rng.Intn(3))
	switch r := s.rng.Intn(20); {
	case r < 9:
		ev := announceEv(member, pathID, s.attrs[s.rng.Intn(len(s.attrs))], s.prefixes(member)...)
		s.announced = append(s.announced, ev)
		return ev
	case r < 12 && len(s.announced) > 0:
		return s.announced[s.rng.Intn(len(s.announced))]
	case r < 18:
		peer := memberName(member)
		if pathID != 0 && s.rng.Intn(2) == 0 {
			peer = "wire" // attribute-less ADD-PATH withdrawal: no peer label
		}
		return withdrawEv(peer, pathID, s.prefixes(member)...)
	default:
		return sessionLoss(member, pathID)
	}
}

func (s *oracleStream) batch() []routeserver.ControllerEvent {
	evs := make([]routeserver.ControllerEvent, 1+s.rng.Intn(4))
	for i := range evs {
		evs[i] = s.event()
	}
	return evs
}

// TestCommunityChannelMatchesSnapshotDiffOracle drives the incremental
// channel and the whole-table snapshot-diff oracle with the same seeded
// event stream and requires identical controller calls, in order, and
// identical controller state after every batch.
func TestCommunityChannelMatchesSnapshotDiffOracle(t *testing.T) {
	type side struct {
		h     *harness
		ctl   *Controller
		ch    *CommunityChannel
		calls []channelCall
	}
	newSide := func() *side {
		s := &side{h: newHarness(t, oracleMembers, nil)}
		cfg := s.h.config()
		cfg.DefaultTTL = 6
		cfg.MaxActivePerMember = 4
		s.ctl = New(cfg)
		s.ch = NewCommunityChannel(s.ctl)
		s.ch.observe = func(c channelCall) { s.calls = append(s.calls, c) }
		return s
	}
	defineRule := func(ctl *Controller) uint32 {
		m := fabric.MatchAll()
		m.Proto = netpkt.ProtoUDP
		m.SrcPort = 11211
		return ctl.Portal().Define(memberName(0), m, fabric.ActionDrop, 0)
	}

	for seed := uint64(1); seed <= 8; seed++ {
		got, want := newSide(), newSide()
		oracle := &snapshotDiffChannel{CommunityChannel: want.ch}
		portalID := defineRule(got.ctl)
		if defineRule(want.ctl) != portalID {
			t.Fatal("portal IDs diverge")
		}
		stream := newOracleStream(t, seed, portalID)
		drop, shape := stream.attrs[1], stream.attrs[2]
		a, b, c := oraclePrefix(0, 0), oraclePrefix(0, 1), oraclePrefix(1, 0)

		// Scripted batches first, so every case the stream must cover
		// occurs on every seed; random batches follow.
		batches := [][]routeserver.ControllerEvent{
			// Announce then withdraw one key in one batch.
			{announceEv(0, 0, drop, a), withdrawEv(memberName(0), 0, a)},
			// The same key announced twice in one batch.
			{announceEv(0, 0, shape, b), announceEv(0, 0, drop, b)},
			// Re-announcement with unchanged attributes: a TTL refresh.
			{announceEv(0, 0, drop, b)},
			// Multi-path ref-counted signal: two ADD-PATH paths.
			{announceEv(1, 1, drop, c), announceEv(1, 2, drop, c)},
			// ADD-PATH withdrawal without a matching peer label.
			{withdrawEv("wire", 1, c)},
			// Multi-event batch ending in a whole-table session loss.
			{announceEv(1, 2, shape, c, oraclePrefix(1, 1)), announceEv(0, 0, shape, a), sessionLoss(1, 2)},
		}
		for i := 0; i < 150; i++ {
			batches = append(batches, stream.batch())
		}

		now := 0.0
		calls, withdraws := 0, 0
		for i, evs := range batches {
			now++
			got.calls, want.calls = nil, nil
			got.ch.HandleEvents(evs, now)
			oracle.HandleEvents(evs, now)
			if !reflect.DeepEqual(got.calls, want.calls) {
				t.Fatalf("seed %d batch %d %+v: controller calls diverge\n got  %+v\n want %+v",
					seed, i, evs, got.calls, want.calls)
			}
			for _, call := range got.calls {
				calls++
				if call.withdraw {
					withdraws++
				}
			}
			got.ctl.Process(now + 0.5)
			want.ctl.Process(now + 0.5)
			if gs, ws := got.ctl.Snapshot(), want.ctl.Snapshot(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("seed %d batch %d: controller snapshots diverge\n got  %+v\n want %+v", seed, i, gs, ws)
			}
			if g, w := got.ctl.ErrorCount(), want.ctl.ErrorCount(); g != w {
				t.Fatalf("seed %d batch %d: error counts %d vs %d", seed, i, g, w)
			}
			if g, w := got.ch.RIBLen(), want.ch.RIBLen(); g != w {
				t.Fatalf("seed %d batch %d: RIB sizes %d vs %d", seed, i, g, w)
			}
		}
		if calls < 100 || withdraws < 10 {
			t.Fatalf("seed %d: stream too quiet to compare: %d calls, %d withdrawals", seed, calls, withdraws)
		}
	}
}

// preloadChannel announces n signal-free paths from a second member,
// the rest of a full table that carries no Advanced Blackholing signal.
func preloadChannel(ch *CommunityChannel, n int) {
	ps := make([]netip.Prefix, n)
	for i := range ps {
		ps[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
	}
	ch.HandleEvent(announceEv(1, 0, bgp.PathAttrs{}, ps...), 0)
}

// signalRoundTrip returns one signal announce+withdraw through the
// channel at clock *now, for member 0's first target.
func signalRoundTrip(tb testing.TB, ch *CommunityChannel, now *float64) func() {
	var attrs bgp.PathAttrs
	ec, err := core.DropUDPSrcPort(123).Encode()
	if err != nil {
		tb.Fatal(err)
	}
	attrs.ExtCommunities = []bgp.ExtCommunity{ec}
	target := oraclePrefix(0, 0)
	announce := announceEv(0, 0, attrs, target)
	withdraw := withdrawEv(memberName(0), 0, target)
	return func() {
		*now++
		ch.HandleEvent(announce, *now)
		ch.HandleEvent(withdraw, *now)
	}
}

// TestCommunityChannelEventCostIndependentOfTableSize pins that one
// signal's announce+withdraw costs the same allocations whatever the
// size of the table around it: the channel diffs only the touched
// paths. Allocation counts are deterministic, unlike timings.
func TestCommunityChannelEventCostIndependentOfTableSize(t *testing.T) {
	allocs := func(paths int) float64 {
		h := newHarness(t, 2, nil)
		ch := NewCommunityChannel(New(h.config()))
		preloadChannel(ch, paths)
		if got := ch.RIBLen(); got != paths {
			t.Fatalf("preloaded %d paths, want %d", got, paths)
		}
		now := 0.0
		return testing.AllocsPerRun(50, signalRoundTrip(t, ch, &now))
	}
	small, large := allocs(1000), allocs(50000)
	// Under -race the counts wander by a few allocations; a diff over
	// the whole table costs hundreds more at 50k paths.
	slack := 0.0
	if raceEnabled {
		slack = 5
	}
	if math.Abs(small-large) > slack {
		t.Fatalf("allocations per signal round trip: %v at 1k paths, %v at 50k", small, large)
	}
}

func BenchmarkCommunityChannelEvent(b *testing.B) {
	for _, paths := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("paths=%d", paths), func(b *testing.B) {
			h := newHarness(b, 2, nil)
			ctl := New(h.config())
			ch := NewCommunityChannel(ctl)
			preloadChannel(ch, paths)
			now := 0.0
			roundTrip := signalRoundTrip(b, ch, &now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
				if i%64 == 63 {
					b.StopTimer()
					ctl.Process(now)
					b.StartTimer()
				}
			}
		})
	}
}

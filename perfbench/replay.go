package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
)

// replaySize sizes the replay workload.
type replaySize struct {
	// peers send the capture; prefixes × pathsPerPrefix paths from them
	// are preloaded.
	peers, prefixes, pathsPerPrefix int
	// records UPDATEs per capture, perSecond per capture second. The
	// last record of every capture second is a blackhole or Advanced
	// Blackholing signal or the withdrawal of one.
	records, perSecond int
}

var defaultReplaySize = replaySize{
	peers: 32, prefixes: 250, pathsPerPrefix: 4,
	records: 1500, perSecond: 10,
}

// capture is a seeded synthetic BGP4MP capture plus what replaying it
// onto the preloaded table must leave behind.
type capture struct {
	mrt     []byte
	records int
	// preload installs the starting table; paths is its path count.
	preload []preloadUpdate
	paths   int
	// wantPaths and wantActive are the route server's path count and the
	// live mitigation count after the replay.
	wantPaths, wantActive int
	// signals are the capture's signals and their withdrawals, by record
	// index; offers carry one attack and one benign flow toward each
	// signal's victim, every capture second.
	signals map[int]capSignal
	offers  fabric.TickOffers
	flows   int
}

type capSignal struct {
	attack   netpkt.FlowKey
	port     string
	withdraw bool
}

// replayMembers returns the capture's peers. They all honor RTBH, so a
// blackholed victim's attack flow dies at the null route.
func replayMembers(n int) []*member.Member {
	ms := make([]*member.Member, n)
	for i := range ms {
		ms[i] = newMember(uint32(64800+i), i, netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 72, byte(i), 0}), 24))
		ms[i].AcceptsMoreSpecifics, ms[i].ActsOnBlackhole = true, true
	}
	return ms
}

// newCapture generates the capture for seed. Besides the signals it
// holds path changes, single-prefix withdrawals and one- to
// three-prefix announcements over the preloaded table's prefixes.
func newCapture(size replaySize, seed uint64) (*capture, error) {
	members := replayMembers(size.peers)
	rng := stats.NewRand(seed)
	c := &capture{records: size.records, signals: map[int]capSignal{}, offers: fabric.TickOffers{}}
	c.preload, c.paths = preloadTable(members, size.prefixes, size.pathsPerPrefix, rng)
	has := make([]map[int]bool, len(members)) // member -> table prefix index
	idx := map[string]int{}
	for i, m := range members {
		has[i] = map[int]bool{}
		idx[m.Name] = i
	}
	for _, pu := range c.preload {
		for _, pp := range pu.u.NLRI {
			a := pp.Prefix.Addr().As4()
			has[idx[pu.peer]][(int(a[1])-96)*256+int(a[2])] = true
		}
	}
	paths := c.paths

	type outstanding struct {
		m      *member.Member
		victim netip.Prefix
		sig    capSignal
	}
	var advbh, rtbh []outstanding
	base := time.Unix(1700000000, 0).UTC()
	signalNo := 0
	for r := 0; r < size.records; r++ {
		sec := r / size.perSecond
		mi := rng.Intn(len(members))
		m := members[mi]
		var u *bgp.Update
		// The last record of each capture second is a signal slot, so a
		// signal's time-to-mitigate spans its own apply and the tick that
		// follows, not the rest of the second's replay.
		if r%size.perSecond == size.perSecond-1 {
			switch k := sec % 4; {
			case k == 0 || k == 1:
				// An Advanced Blackholing drop of one UDP source port, or
				// an RTBH blackhole, for a fresh victim /32 of m; the
				// next member sends it an attack flow (and a benign one).
				victim := host(m.Prefixes[0], 1+signalNo%250)
				port := uint16(1024 + signalNo)
				u = announcement(m, 0, 0, victim)
				u.Attrs.MED = nil
				if k == 0 {
					ec, err := core.DropUDPSrcPort(port).Encode()
					if err != nil {
						return nil, err
					}
					u.Attrs.ExtCommunities = []bgp.ExtCommunity{ec}
				} else {
					u.Attrs.Communities = []bgp.Community{bgp.CommunityBlackhole}
				}
				attack := netpkt.FlowKey{
					SrcMAC: members[(mi+1)%len(members)].MAC,
					Src:    netip.AddrFrom4([4]byte{198, 51, byte(signalNo >> 8), byte(signalNo)}),
					Dst:    victim.Addr(), Proto: netpkt.ProtoUDP, SrcPort: port, DstPort: 443,
				}
				benign := attack
				benign.Proto, benign.SrcPort = netpkt.ProtoTCP, 40000
				c.offers[m.Name] = append(c.offers[m.Name],
					fabric.Offer{Flow: attack, FlowHash: attack.Hash(), Bytes: 1e6, Packets: 2000},
					fabric.Offer{Flow: benign, FlowHash: benign.Hash(), Bytes: 1e5, Packets: 200})
				c.flows += 2
				o := outstanding{m, victim, capSignal{attack: attack, port: m.Name}}
				c.signals[r] = o.sig
				if k == 0 {
					advbh = append(advbh, o)
				} else {
					rtbh = append(rtbh, o)
				}
				signalNo++
				paths++
			case k == 2 && len(advbh) > 0, k == 3 && len(rtbh) > 0:
				q := &advbh
				if k == 3 {
					q = &rtbh
				}
				o := (*q)[0]
				*q = (*q)[1:]
				m, u = o.m, withdrawal(o.victim)
				o.sig.withdraw = true
				c.signals[r] = o.sig
				paths--
			}
		}
		if u == nil {
			u, paths = churnUpdate(rng, m, has[mi], size.prefixes, paths)
		}
		var err error
		c.mrt, err = bgppipe.AppendMRTMessage(c.mrt, base.Add(time.Duration(sec)*time.Second),
			m.ASN, ixpASN, m.BGPID, rsBGPID, u, nil)
		if err != nil {
			return nil, err
		}
	}
	c.wantPaths = paths
	c.wantActive = len(advbh)
	return c, nil
}

// churnUpdate draws one ordinary capture UPDATE for member m: a path
// change (40%) or withdrawal (40%) of one of its table paths, or an
// announcement of one to three table prefixes it lacks (20%), which
// keeps the table's size steady. It returns the UPDATE and the table's
// new path count.
func churnUpdate(rng *stats.Rand, m *member.Member, has map[int]bool, nPrefixes, paths int) (*bgp.Update, int) {
	r := rng.Float64()
	if r >= 0.8 || len(has) == 0 {
		// Announce up to three prefixes of one origin block that m lacks.
		want := 1 + rng.Intn(3)
		start := rng.Intn(nPrefixes)
		var js []int
		for s := 0; s < nPrefixes && len(js) < want; s++ {
			j := (start + s) % nPrefixes
			if has[j] {
				continue
			}
			if len(js) > 0 && j/256 != js[0]/256 {
				break
			}
			js = append(js, j)
		}
		if len(js) > 0 {
			for _, j := range js {
				has[j] = true
			}
			return tableAnnouncement(m, rng, js...), paths + len(js)
		}
		r = 0 // m holds every prefix: change a path instead
	}
	// One of m's paths: scan from a random prefix.
	j := rng.Intn(nPrefixes)
	for !has[j] {
		j = (j + 1) % nPrefixes
	}
	if r < 0.4 {
		return tableAnnouncement(m, rng, j), paths
	}
	delete(has, j)
	return withdrawal(tablePrefix(j)), paths - 1
}

// tableAnnouncement announces table prefixes js (of one origin block)
// from m with a random prepend and MED.
func tableAnnouncement(m *member.Member, rng *stats.Rand, js ...int) *bgp.Update {
	med := uint32(rng.Intn(100))
	asns := []uint32{m.ASN}
	for p := rng.Intn(3); p > 0; p-- {
		asns = append(asns, m.ASN)
	}
	u := &bgp.Update{Attrs: bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		NextHop: m.BGPID,
		MED:     &med,
	}}
	origin, _ := originOf(js[0])
	asns = append(asns, origin)
	for _, j := range js {
		u.NLRI = append(u.NLRI, bgp.PathPrefix{Prefix: tablePrefix(j)})
	}
	u.Attrs.ASPath = []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}}
	return u
}

// replayPass is one exchange built and preloaded for one replay of the
// capture.
type replayPass struct {
	x        *ixp.IXP
	rejected atomic.Int64
	// feedEnd is the time the route server's event reached the
	// benchmark's subscriber, registered after the community channel's.
	feedEnd time.Time
}

func newReplayPass(size replaySize, c *capture) (*replayPass, error) {
	members := replayMembers(size.peers)
	x, err := buildIXP(members, false)
	if err != nil {
		return nil, err
	}
	p := &replayPass{x: x}
	registerOrigins(x, size.prefixes)
	for _, pu := range c.preload {
		if err := x.HandleWireUpdate(pu.peer, pu.u); err != nil {
			return nil, fmt.Errorf("replay: preload: %w", err)
		}
	}
	if n := x.RS.Table().Len(); n != c.paths {
		return nil, fmt.Errorf("replay: preloaded %d paths, want %d", n, c.paths)
	}
	x.RS.Subscribe(func(routeserver.ControllerEvent) { p.feedEnd = time.Now() })
	x.Mitigations.Subscribe(func(ev mitctl.Event) {
		if ev.Type == mitctl.EventRejected {
			p.rejected.Add(1)
		}
	})
	return p, nil
}

// replayStats accumulates one run's samples across passes.
type replayStats struct {
	res                  *result
	ttm, recover         []timed
	updateRates          []float64
	updateRate, flowRate rateWindows
	records, flows       int64
	// wall and cpu are the timed passes' wall time and the replaying
	// thread's CPU time.
	wall, cpu        time.Duration
	exports, updates int
}

// replay applies the whole capture to the pass's exchange, one control
// and egress tick per capture second, and checks the result.
func (st *replayStats) replay(p *replayPass, c *capture, tr *tracer) error {
	// Every step of the pass runs on this goroutine; the thread CPU
	// clock needs it to stay on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x := p.x
	sc := bgppipe.NewMRTScanner(bytes.NewReader(c.mrt))
	type pending struct {
		cpu0     time.Duration
		sig      capSignal
		recordNo int
	}
	var waiting []pending
	var applied, ticks int
	var curSec int64 = -1
	start, cpuStart := time.Now(), threadCPU()
	tick := func() error {
		t0 := time.Now()
		x.ControlTick(0, 1)
		t1 := time.Now()
		reps, err := x.EgressTick(nil, c.offers, 1, nil)
		t2, cpu2 := time.Now(), threadCPU()
		if err != nil {
			return err
		}
		ticks++
		at := st.cpu + cpu2 - cpuStart
		st.updateRate.mark(at, st.records+int64(applied))
		st.flowRate.mark(at, st.flows+int64(ticks*c.flows))
		tr.add("control_tick", int64(ticks), -1, t0, t1)
		tr.add("egress_tick", int64(ticks), -1, t1, t2)
		// Every signal must act by the tick that follows it.
		for _, w := range waiting {
			delivered := reps[w.sig.port].Result.DeliveredByFlow[w.sig.attack]
			switch {
			case !w.sig.withdraw && delivered == 0:
				st.ttm = append(st.ttm, timed{st.cpu + w.cpu0 - cpuStart, micros(cpu2 - w.cpu0)})
			case w.sig.withdraw && delivered > 0:
				st.recover = append(st.recover, timed{st.cpu + w.cpu0 - cpuStart, micros(cpu2 - w.cpu0)})
			default:
				st.res.failed++
				st.res.check(false, "capture record %d: signal not acted on by the next tick", w.recordNo)
			}
		}
		waiting = waiting[:0]
		return nil
	}
	for r := 0; ; r++ {
		ts := time.Now()
		rec, err := sc.Next()
		te := time.Now()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("replay: scan record %d: %w", r, err)
		}
		tr.add("scan", int64(r), -1, ts, te)
		if sec := rec.Time.Unix(); sec != curSec {
			if curSec >= 0 {
				if err := tick(); err != nil {
					return err
				}
			}
			curSec = sec
		}
		u, ok := rec.Msg.(*bgp.Update)
		if !ok {
			return fmt.Errorf("replay: record %d is not an UPDATE", r)
		}
		var before []best
		if tr != nil {
			before = bests(x, u)
		}
		sig, isSignal := c.signals[r]
		var cpu0 time.Duration
		if isSignal {
			cpu0 = threadCPU()
		}
		p.feedEnd = time.Time{}
		t0 := time.Now()
		err = x.HandleWireUpdate(rec.Peer, u)
		t1 := time.Now()
		st.res.attempted++
		if err != nil {
			st.res.failed++
			st.res.check(false, "capture record %d: %v", r, err)
			continue
		}
		applied++
		if tr != nil {
			root := tr.add("apply", int64(r), -1, t0, t1)
			if !p.feedEnd.IsZero() {
				tr.add("feed", int64(r), root, t0, p.feedEnd)
			}
			st.exports += exportsFor(x, before)
			st.updates++
		}
		if isSignal {
			waiting = append(waiting, pending{cpu0: cpu0, sig: sig, recordNo: r})
		}
	}
	if err := tick(); err != nil {
		return err
	}
	d := time.Since(start)
	st.wall += d
	st.cpu += threadCPU() - cpuStart
	st.records += int64(applied)
	st.flows += int64(ticks * c.flows)
	st.updateRates = append(st.updateRates, float64(applied)/d.Seconds())

	res := st.res
	res.check(applied == c.records, "applied %d capture records, generated %d", applied, c.records)
	res.check(x.RS.Table().Len() == c.wantPaths, "route server holds %d paths, the capture implies %d", x.RS.Table().Len(), c.wantPaths)
	res.check(len(x.Mitigations.Active()) == c.wantActive, "%d live mitigations, the capture implies %d", len(x.Mitigations.Active()), c.wantActive)
	res.check(len(x.RS.Rejections()) == 0, "route server rejected %d capture routes", len(x.RS.Rejections()))
	res.check(x.Mitigations.ErrorCount() == 0, "mitctl recorded %d errors", x.Mitigations.ErrorCount())
	res.check(p.rejected.Load() == 0, "mitctl rejected %d capture signals", p.rejected.Load())
	return nil
}

// best is a prefix's best path before an UPDATE.
type best struct {
	prefix netip.Prefix
	path   *rib.Path
}

func bests(x *ixp.IXP, u *bgp.Update) []best {
	var out []best
	for _, pp := range append(u.AllWithdrawn(), u.AllAnnounced()...) {
		out = append(out, best{pp.Prefix, x.RS.Table().Best(pp.Prefix)})
	}
	return out
}

// exportsFor counts the peer UPDATEs the best-path changes since before
// fan out to: every registered peer but one (the capture carries no
// export-policy communities, so the route server exports to every peer
// except the best path's announcer, or the withdrawn one's).
func exportsFor(x *ixp.IXP, before []best) int {
	peers := len(x.RS.Peers())
	n := 0
	for _, b := range before {
		if x.RS.Table().Best(b.prefix) != b.path {
			n += peers - 1
		}
	}
	return n
}

func runReplay(cfg runConfig) (*result, error) {
	size := cfg.size.(replaySize)
	res := newResult()
	c, err := newCapture(size, cfg.seed)
	if err != nil {
		return nil, err
	}
	var clock setupClock

	// Warm-up: one untimed pass.
	clock.begin()
	warm, err := newReplayPass(size, c)
	if err != nil {
		return nil, err
	}
	warmStats := &replayStats{res: newResult()}
	if err := warmStats.replay(warm, c, nil); err != nil {
		return nil, err
	}
	for _, f := range warmStats.res.failures {
		res.check(false, "warm-up: %s", f)
	}
	clock.end()

	st := &replayStats{res: res}
	st.updateRate.phase = time.Duration(cfg.seconds * float64(time.Second))
	st.flowRate.phase = st.updateRate.phase
	var rt rtSample
	var last *replayPass
	// The wall-time cap keeps a run on a host that gives the thread less
	// than half its time within twice the requested length.
	for st.cpu.Seconds() < cfg.seconds && st.wall.Seconds() < 2*cfg.seconds {
		clock.begin()
		p, err := newReplayPass(size, c)
		if err != nil {
			return nil, err
		}
		clock.end()
		before := readRuntime()
		if err := st.replay(p, c, cfg.tr); err != nil {
			return nil, err
		}
		after := readRuntime()
		rt.add(before, after)
		last = p
	}
	res.e2e["setup_s"] = clock.median()
	res.e2e["updates_per_s"] = st.updateRate.rate()
	res.e2e["flows_per_s"] = st.flowRate.rate()
	res.e2e["ttm_p50_us"] = windowed(st.ttm, st.cpu, 50)
	res.e2e["ttm_p99_us"] = windowed(st.ttm, st.cpu, 99)
	res.e2e["recover_p50_us"] = windowed(st.recover, st.cpu, 50)
	res.info["wall_updates_per_s"] = float64(st.records) / st.wall.Seconds()
	res.info["thread_cpu_over_wall"] = st.cpu.Seconds() / st.wall.Seconds()
	res.info["passes"] = len(st.updateRates)
	res.info["setups"] = clock.samples
	res.info["records_per_pass"] = c.records
	res.info["table_paths"] = last.x.RS.Table().Len()
	res.info["updates_per_s_passes"] = summarize(st.updateRates)
	res.info["ttm_us"] = summarize(values(st.ttm))
	res.info["recover_us"] = summarize(values(st.recover))

	res.layer["mitctl.channel_paths"] = float64(last.x.Community.RIBLen())
	res.layer["mitctl.errors"] = float64(last.x.Mitigations.ErrorCount())
	res.layer["mitctl.rejected"] = float64(last.rejected.Load())
	runtimeStats(res, rtSample{}, rt, int(st.records))
	if cfg.tr != nil {
		by := cfg.tr.byName()
		var scan float64
		for _, us := range by["scan"] {
			scan += us
		}
		res.layer["bgp.scan_us_per_record"] = scan / float64(len(by["scan"]))
		res.layer["ixp.apply_us_p50"] = median(cfg.tr.durations("apply"))
		res.layer["routeserver.feed_us_p50"] = median(by["feed"])
		res.layer["mitctl.control_tick_us_p50"] = median(by["control_tick"])
		if st.updates > 0 {
			res.layer["routeserver.exports_per_update"] = float64(st.exports) / float64(st.updates)
		}
	}
	// Read last: the samples above are the benchmark's, not the
	// program's; the last pass's exchange is the program's live state.
	res.e2e["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	return res, nil
}

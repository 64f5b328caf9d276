package main

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/bgppipe"
	"stellar/internal/bgpsession"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/routeserver"
	"stellar/internal/stats"
)

// mitigateSize sizes the mitigate workload.
type mitigateSize struct {
	// prefixes × pathsPerPrefix paths from preloadMembers members are in
	// the route server (and the community channel's RIB) before the
	// first signal.
	prefixes, pathsPerPrefix, preloadMembers int
	// churnRate is the open-loop churn session's UPDATEs per second over
	// churnPrefixes prefixes.
	churnRate     float64
	churnPrefixes int
	// attackFlows and benignFlows are offered to the victim port on each
	// confirming egress tick.
	attackFlows, benignFlows int
	// segments is how many times a run sets up and measures: the timed
	// phase is split across that many fresh set-ups, so one set-up's
	// luck with goroutine placement does not decide the run. setup_s is
	// the median set-up time.
	segments int
	// warmSignals closed-loop cycles end every set-up.
	warmSignals int
	// burnIn of closed-loop cycles precedes the first timed segment: a
	// second CPU that sat idle runs slow for its first second or so of
	// load on virtual machines.
	burnIn time.Duration
	// deadline bounds each signal's wait for its drop (and each
	// withdrawal's wait for delivery).
	deadline time.Duration
}

var defaultMitigateSize = mitigateSize{
	prefixes: 250, pathsPerPrefix: 4, preloadMembers: 8,
	churnRate: 250, churnPrefixes: 64,
	attackFlows: 64, benignFlows: 16,
	segments: 5, warmSignals: 20, burnIn: 2 * time.Second, deadline: time.Second,
}

const (
	sigASN   = 64500
	churnASN = 64501
	// confirmDt is the length of a confirming egress tick; attackBytes
	// and benignBytes are offered in it, below the victim port's
	// capacity so only the mitigation rule drops traffic. The attack
	// exceeds the shaper's one-second burst at the highest signalled
	// shape rate, so a shape signal drops attack bytes on its first tick.
	confirmDt   = 1
	attackBytes = 30e6
	benignBytes = 1e6
)

// signal is one phase (announce or withdraw) of one closed-loop cycle.
// The signaller creates it and publishes it before sending; the RX line
// writes its timestamps before waking the signaller.
type signal struct {
	mitID    string
	withdraw bool

	tPre, tReq, tCtl, tInst time.Time
	withdrawnSeen           bool
	rejected                bool
	tRemCtl, tRemEnd        time.Time
}

// mitHarness is one set-up instance of the mitigate workload: the
// exchange, the wire pipeline, and the two member sessions.
type mitHarness struct {
	size mitigateSize
	tr   *tracer
	x    *ixp.IXP
	pool *fabric.Pool
	pipe *bgppipe.Pipe

	sigMember, churnMember *member.Member
	attackers              []*member.Member
	sig, churn             *bgpsession.Session
	sessWG                 sync.WaitGroup

	// spine serializes ControlTick and EgressTick, as the engine spine
	// orders them.
	spine sync.Mutex
	cur   atomic.Pointer[signal]
	wake  chan struct{}

	// RX line state, touched only from the RX line's goroutine.
	rxPeer     string
	rxCtlEnd   time.Time
	rxChurnDue time.Time

	churnMu  sync.Mutex
	churnDue []time.Time

	churnSent, churnApplied atomic.Int64
	updatesApplied          atomic.Int64
	rsRejects, rsErrors     atomic.Int64
	mitRejected             atomic.Int64
	backlogMax              atomic.Int64
	churnErr                atomic.Value // error
	// recording gates the RX line's spans to the timed phase.
	recording atomic.Bool

	churnStop chan struct{}
	churnDone chan struct{}
	lateMax   time.Duration // written by the churn goroutine, read after churnDone
}

func runMitigate(cfg runConfig) (*result, error) {
	size := cfg.size.(mitigateSize)
	res := newResult()
	var clock setupClock
	var ttms, recovers []timed
	var flowRate, updateRate rateWindows
	var rt rtSample
	var phase time.Duration
	planned := time.Duration(cfg.seconds * float64(time.Second) / float64(size.segments))
	flowRate.phase = planned * time.Duration(size.segments)
	updateRate.phase = flowRate.phase
	gen := newSignalGen(cfg.seed + 1)
	var last *mitHarness
	for seg := 0; seg < size.segments; seg++ {
		clock.begin()
		h, err := newMitHarness(size, cfg.seed, cfg.tr)
		if err != nil {
			return nil, err
		}
		warm := newSignalGen(cfg.seed)
		for w := 0; w < size.warmSignals; w++ {
			if c := h.cycle(warm.next(h), false); !c.ok {
				h.close()
				return nil, fmt.Errorf("mitigate: warm-up signal %d failed: %s", w, c.why)
			}
		}
		clock.end()
		if seg == 0 {
			burn := newSignalGen(cfg.seed + 2)
			for t0 := time.Now(); time.Since(t0) < size.burnIn; {
				if c := h.cycle(burn.next(h), false); !c.ok {
					h.close()
					return nil, fmt.Errorf("mitigate: burn-in signal %d failed: %s", c.idx, c.why)
				}
			}
		}

		// Timed segment: closed-loop signals until its time is up.
		h.updatesApplied.Store(0)
		h.recording.Store(true)
		before := readRuntime()
		start := time.Now()
		var flows, ticks, updates int64
		for time.Since(start) < planned {
			at := phase + time.Since(start)
			c := h.cycle(gen.next(h), true)
			res.attempted++
			ticks += int64(c.ticks)
			flows = ticks * int64(size.attackFlows+size.benignFlows)
			updates = h.updatesApplied.Load()
			end := phase + time.Since(start)
			flowRate.mark(end, flowRate.total+flows)
			updateRate.mark(end, updateRate.total+updates)
			if !c.ok {
				res.failed++
				if len(res.failures) < 5 {
					res.check(false, "signal %d: %s", c.idx, c.why)
				}
				continue
			}
			ttms = append(ttms, timed{at, micros(c.ttm)})
			recovers = append(recovers, timed{at, micros(c.recover)})
		}
		phase += time.Since(start)
		flowRate.total += flows
		updateRate.total += updates
		h.recording.Store(false)
		rt.add(before, readRuntime())
		h.check(res)
		if seg < size.segments-1 {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		last = h
	}
	defer last.close()

	res.e2e["setup_s"] = clock.median()
	res.info["setups"] = clock.samples
	res.e2e["ttm_p50_us"] = windowed(ttms, phase, 50)
	res.e2e["ttm_p99_us"] = windowed(ttms, phase, 99)
	res.e2e["recover_p50_us"] = windowed(recovers, phase, 50)
	res.e2e["flows_per_s"] = flowRate.rate()
	res.e2e["updates_per_s"] = updateRate.rate()
	res.info["ttm_us"] = summarize(values(ttms))
	res.info["recover_us"] = summarize(values(recovers))
	// Read after the last use of the samples, which are the benchmark's
	// and not the program's live state.
	res.e2e["heap_mb"] = liveHeapMB()
	res.info["signals"] = res.attempted
	res.info["table_paths"] = last.x.RS.Table().Len()

	res.layer["mitctl.channel_paths"] = float64(last.x.Community.RIBLen())
	runtimeStats(res, rtSample{}, rt, res.attempted)
	if cfg.tr != nil {
		mitigateLayers(res, cfg.tr)
	}
	return res, nil
}

// check stops the churn session and checks the harness's outputs,
// adding its counters to the per-layer metrics.
func (h *mitHarness) check(res *result) {
	h.stopChurn()
	if err, _ := h.churnErr.Load().(error); err != nil {
		res.check(false, "churn session: %v", err)
	}
	drained := h.waitChurnApplied(5 * time.Second)
	res.check(drained, "churn: %d UPDATEs sent, %d applied", h.churnSent.Load(), h.churnApplied.Load())
	ctl := h.x.Mitigations
	res.check(ctl.ErrorCount() == 0, "mitctl recorded %d errors", ctl.ErrorCount())
	res.check(h.mitRejected.Load() == 0, "mitctl rejected %d valid signals", h.mitRejected.Load())
	res.check(h.rsRejects.Load() == 0 && h.rsErrors.Load() == 0,
		"route server: %d rejections, %d errors", h.rsRejects.Load(), h.rsErrors.Load())
	res.check(len(ctl.Active()) == 0, "%d mitigations still live after their withdrawals", len(ctl.Active()))
	res.layer["mitctl.errors"] += float64(ctl.ErrorCount())
	res.layer["mitctl.rejected"] += float64(h.mitRejected.Load())
	res.layer["routeserver.rx_backlog_max"] = max(res.layer["routeserver.rx_backlog_max"], float64(h.backlogMax.Load()))
	res.layer["gen.churn_late_ms_max"] = max(res.layer["gen.churn_late_ms_max"], float64(h.lateMax)/1e6)
}

// mitigateLayers derives the per-layer metrics from the spans.
func mitigateLayers(res *result, tr *tracer) {
	by := tr.byName()
	for metric, spanName := range map[string]string{
		"bgppipe.wire_us_p50":            "wire",
		"routeserver.signal_feed_us_p50": "signal_feed",
		"mitctl.install_us_p50":          "install",
		"harness.notify_us_p50":          "notify",
		"fabric.confirm_us_p50":          "confirm",
		"mitctl.remove_us_p50":           "remove",
		"routeserver.export_us_p50":      "export",
		"routeserver.churn_apply_us_p50": "churn_apply",
	} {
		res.layer[metric] = median(by[spanName])
	}
	res.layer["trace.path_self_over_ttm"] = pathCoverage(tr.snapshot())
}

// blockingPath names the spans that tile a signal's time-to-mitigate.
var blockingPath = []string{"wire", "signal_feed", "install", "notify", "confirm"}

// pathCoverage returns the summed self-times of the blocking-path spans
// over the summed traced time-to-mitigate.
func pathCoverage(spans []span) float64 {
	self := selfTimes(spans)
	onPath := map[string]bool{}
	for _, n := range blockingPath {
		onPath[n] = true
	}
	var path, total int64
	for i, s := range spans {
		switch {
		case s.Name == "ttm":
			total += s.End - s.Start
		case onPath[s.Name] && s.Parent >= 0 && spans[s.Parent].Name == "ttm":
			path += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(path) / float64(total)
}

func newMitHarness(size mitigateSize, seed uint64, tr *tracer) (*mitHarness, error) {
	h := &mitHarness{
		size:        size,
		tr:          tr,
		wake:        make(chan struct{}, 1),
		sigMember:   newMember(sigASN, 0, netip.MustParsePrefix("100.64.0.0/24")),
		churnMember: newMember(churnASN, 1, netip.MustParsePrefix("100.65.0.0/16")),
	}
	members := []*member.Member{h.sigMember, h.churnMember}
	for i := 0; i < size.preloadMembers; i++ {
		m := newMember(uint32(64510+i), 2+i)
		members = append(members, m)
		h.attackers = append(h.attackers, m)
	}
	x, err := buildIXP(members, true)
	if err != nil {
		return nil, err
	}
	h.x = x
	registerOrigins(x, size.prefixes)
	ups, paths := preloadTable(h.attackers, size.prefixes, size.pathsPerPrefix, stats.NewRand(seed))
	for _, pu := range ups {
		if err := x.HandleWireUpdate(pu.peer, pu.u); err != nil {
			return nil, fmt.Errorf("mitigate: preload: %w", err)
		}
	}
	if n := x.RS.Table().Len(); n != paths {
		return nil, fmt.Errorf("mitigate: preloaded %d paths, want %d", n, paths)
	}
	x.RS.Subscribe(h.onRouteServerEvent)
	x.Mitigations.Subscribe(h.onMitigationEvent)
	h.pool = fabric.NewPool(0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.pool.Close()
		return nil, err
	}
	h.pipe = bgppipe.New(bgppipe.Options{})
	feed := &bgppipe.RSFeed{
		RS:         x.RS,
		PreUpdate:  h.preUpdate,
		AfterApply: h.afterApply,
		OnReject:   func(routeserver.Rejection) { h.rsRejects.Add(1) },
		OnError:    func(string, error) { h.rsErrors.Add(1) },
	}
	if err := h.pipe.Attach(bgppipe.NewListen(ln, bgpsession.Config{LocalAS: ixpASN, BGPID: rsBGPID})); err != nil {
		ln.Close()
		h.pool.Close()
		return nil, err
	}
	if err := h.pipe.Attach(feed); err != nil {
		ln.Close()
		h.pool.Close()
		return nil, err
	}
	h.pipe.Start()
	h.churnStop = make(chan struct{})
	h.churnDone = make(chan struct{})
	if h.sig, err = h.dial(ln.Addr().String(), h.sigMember); err == nil {
		h.churn, err = h.dial(ln.Addr().String(), h.churnMember)
	}
	if err != nil {
		close(h.churnDone)
		h.close()
		return nil, err
	}
	go h.runChurn(stats.NewRand(seed ^ 0x9e3779b97f4a7c15))
	return h, nil
}

// dial opens a member's BGP session over loopback TCP and waits until it
// is established.
func (h *mitHarness) dial(addr string, m *member.Member) (*bgpsession.Session, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := bgpsession.New(conn, bgpsession.Config{LocalAS: m.ASN, BGPID: m.BGPID}, nil)
	h.sessWG.Add(1)
	go func() {
		defer h.sessWG.Done()
		_ = s.Run() // the session's end is observed through State
	}()
	for t0 := time.Now(); s.State() != bgpsession.StateEstablished; time.Sleep(time.Millisecond) {
		if s.State() == bgpsession.StateClosed || time.Since(t0) > 5*time.Second {
			_ = s.Close()
			return nil, fmt.Errorf("mitigate: session for %s not established", m.Name)
		}
	}
	return s, nil
}

// close stops the churn generator, the sessions and the pipe, and waits
// for every goroutine they started.
func (h *mitHarness) close() error {
	h.stopChurn()
	for _, s := range []*bgpsession.Session{h.sig, h.churn} {
		if s != nil {
			_ = s.Close()
		}
	}
	h.sessWG.Wait()
	h.pipe.Stop()
	err := h.pipe.Wait()
	h.pool.Close()
	return err
}

func (h *mitHarness) stopChurn() {
	select {
	case <-h.churnStop:
	default:
		close(h.churnStop)
	}
	<-h.churnDone
}

func (h *mitHarness) waitChurnApplied(limit time.Duration) bool {
	for t0 := time.Now(); time.Since(t0) < limit; time.Sleep(time.Millisecond) {
		if h.churnApplied.Load() == h.churnSent.Load() {
			return true
		}
	}
	return false
}

// preUpdate is the RSFeed hook run before the route server applies an
// UPDATE.
func (h *mitHarness) preUpdate(peer string, _ *bgp.Update) {
	now := time.Now()
	h.rxPeer, h.rxCtlEnd = peer, time.Time{}
	switch peer {
	case h.sigMember.Name:
		if s := h.cur.Load(); s != nil {
			s.tPre = now
		}
	case h.churnMember.Name:
		h.churnMu.Lock()
		h.rxChurnDue = h.churnDue[0]
		h.churnDue = h.churnDue[1:]
		h.churnMu.Unlock()
	}
}

// onRouteServerEvent runs after the community channel has folded the
// route server's event in; it drives one control tick per southbound
// event, as ixpd does.
func (h *mitHarness) onRouteServerEvent(ev routeserver.ControllerEvent) {
	var s *signal
	if ev.Peer == h.sigMember.Name {
		s = h.cur.Load()
	}
	h.spine.Lock()
	t := time.Now()
	if s != nil && !s.withdraw {
		s.tCtl = t
	}
	h.x.ControlTick(0, 0.001)
	end := time.Now()
	h.spine.Unlock()
	h.rxCtlEnd = end
	if s != nil && s.withdraw && s.withdrawnSeen {
		s.tRemCtl, s.tRemEnd = t, end
		h.notify()
	}
}

func (h *mitHarness) onMitigationEvent(ev mitctl.Event) {
	s := h.cur.Load()
	m := ev.Mitigation
	switch ev.Type {
	case mitctl.EventRequested:
		if s != nil && !s.withdraw && m.ID == s.mitID {
			s.tReq = time.Now()
		}
	case mitctl.EventInstalled:
		if s != nil && !s.withdraw && m.ID == s.mitID {
			s.tInst = time.Now()
			h.notify()
		}
	case mitctl.EventRejected:
		h.mitRejected.Add(1)
		if s != nil && !s.withdraw && m.ID == s.mitID {
			s.rejected = true
			h.notify()
		}
	case mitctl.EventWithdrawn:
		if s != nil && s.withdraw && m.ID == s.mitID {
			s.withdrawnSeen = true
		}
	}
}

func (h *mitHarness) notify() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// afterApply is the RSFeed hook run once an UPDATE's exports are queued.
func (h *mitHarness) afterApply() {
	now := time.Now()
	h.updatesApplied.Add(1)
	var tr *tracer
	if h.recording.Load() {
		tr = h.tr
	}
	if !h.rxCtlEnd.IsZero() {
		tr.add("export", 0, -1, h.rxCtlEnd, now)
	}
	if h.rxPeer == h.churnMember.Name {
		n := h.churnApplied.Add(1)
		tr.add("churn_apply", n, -1, h.rxChurnDue, now)
	}
}

// runChurn is the open-loop churn session: single-prefix announcements,
// withdrawals and path changes at a fixed rate, each timed from when it
// was due.
func (h *mitHarness) runChurn(rng *stats.Rand) {
	defer close(h.churnDone)
	interval := time.Duration(float64(time.Second) / h.size.churnRate)
	announced := make([]bool, h.size.churnPrefixes)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-h.churnStop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-h.churnStop:
				return
			default:
			}
		}
		c := rng.Intn(len(announced))
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 65, byte(c), 0}), 24)
		var u *bgp.Update
		switch {
		case !announced[c]:
			u = announcement(h.churnMember, 0, uint32(rng.Intn(100)), p)
			announced[c] = true
		case rng.Intn(2) == 0:
			u = withdrawal(p)
			announced[c] = false
		default: // path change
			u = announcement(h.churnMember, 1+rng.Intn(2), uint32(rng.Intn(100)), p)
		}
		h.churnMu.Lock()
		h.churnDue = append(h.churnDue, due)
		h.churnMu.Unlock()
		sent := h.churnSent.Add(1)
		if b := sent - h.churnApplied.Load(); b > h.backlogMax.Load() {
			h.backlogMax.Store(b)
		}
		if late := time.Since(due); late > h.lateMax {
			h.lateMax = late
		}
		if err := h.churn.SendUpdate(u); err != nil {
			h.churnErr.Store(err)
			return
		}
	}
}

// signalGen draws the seeded signal schedule: the victim /32, the
// drop-UDP-source-port or shape signal, and the offers of its confirming
// egress tick. Source ports step through a cycle of 64000, so every
// signal of a run carries a distinct mitigation ID.
type signalGen struct {
	rng       *stats.Rand
	n         int
	portStep  int
	portStart int
}

func newSignalGen(seed uint64) *signalGen {
	rng := stats.NewRand(seed ^ 0x5bd1e995)
	// An odd step not divisible by 5 is coprime with 64000.
	step := 1 + 2*rng.Intn(8000)
	for step%5 == 0 {
		step += 2
	}
	return &signalGen{rng: rng, portStep: step, portStart: rng.Intn(64000)}
}

type plannedSignal struct {
	idx      int
	rs       core.RuleSpec
	mitID    string
	announce *bgp.Update
	withdraw *bgp.Update
	offers   fabric.TickOffers
}

// next draws the next signal for harness h's members.
func (g *signalGen) next(h *mitHarness) plannedSignal {
	i := g.n
	g.n++
	port := uint16(1024 + (g.portStart+i*g.portStep)%64000)
	rs := core.DropUDPSrcPort(port)
	if g.rng.Intn(2) == 1 {
		rs = core.ShapeUDPSrcPort(port, float64(1+g.rng.Intn(8))*core.ShapeRateUnitBps)
	}
	victim := host(h.sigMember.Prefixes[0], 1+g.rng.Intn(254))
	spec, err := mitctl.SpecFromSignal(h.sigMember.Name, victim, rs, nil)
	if err != nil {
		panic(err) // predefined selectors always compile
	}
	ec, err := rs.Encode()
	if err != nil {
		panic(err) // rates stay within the encodable range
	}
	ann := announcement(h.sigMember, 0, 0, victim)
	ann.Attrs.MED = nil
	ann.Attrs.ExtCommunities = []bgp.ExtCommunity{ec}

	na, nb := h.size.attackFlows, h.size.benignFlows
	offers := make([]fabric.Offer, 0, na+nb)
	for f := 0; f < na+nb; f++ {
		src := h.attackers[f%len(h.attackers)]
		flow := netpkt.FlowKey{
			SrcMAC: src.MAC,
			Src:    netip.AddrFrom4([4]byte{198, 51, byte(f >> 8), byte(f)}),
			Dst:    victim.Addr(),
		}
		bytes := attackBytes / float64(na)
		if f < na {
			flow.Proto, flow.SrcPort, flow.DstPort = netpkt.ProtoUDP, port, 443
		} else {
			flow.Proto, flow.SrcPort, flow.DstPort = netpkt.ProtoTCP, uint16(40000+f), 443
			bytes = benignBytes / float64(nb)
		}
		offers = append(offers, fabric.Offer{Flow: flow, FlowHash: flow.Hash(), Bytes: bytes, Packets: bytes / 500})
	}
	return plannedSignal{
		idx: i, rs: rs, mitID: mitctl.DeriveID(spec),
		announce: ann, withdraw: withdrawal(victim),
		offers: fabric.TickOffers{h.sigMember.Name: offers},
	}
}

// cycleResult is one closed-loop signal: announce until the attack
// drops, then withdraw until it is delivered again.
type cycleResult struct {
	idx          int
	ok           bool
	why          string
	ttm, recover time.Duration
	ticks        int
}

var errDeadline = errors.New("deadline passed")

func (h *mitHarness) cycle(p plannedSignal, record bool) cycleResult {
	c := cycleResult{idx: p.idx}
	tr := h.tr
	if !record {
		tr = nil
	}
	// Announce: wire signal to the first egress tick that drops it.
	s := &signal{mitID: p.mitID}
	t0, tWake, tEnd, ticks, err := h.phase(s, p, p.announce, func(r fabric.TickResult) bool {
		if p.rs.Action == fabric.ActionShape {
			// The shaper passes at most its one-second burst and drops
			// the rest of the attack.
			return r.ShaperDroppedBytes >= attackBytes-p.rs.ShapeRateBps*confirmDt/8*1.001 &&
				r.DeliveredBytes >= 0.999*benignBytes
		}
		return r.RuleDroppedBytes >= 0.999*attackBytes && r.DeliveredBytes >= 0.999*benignBytes
	})
	c.ticks += ticks
	if err != nil {
		c.why = "mitigation: " + err.Error()
		return c
	}
	c.ttm = tEnd.Sub(t0)
	id := int64(p.idx)
	root := tr.add("ttm", id, -1, t0, tEnd)
	tr.add("wire", id, root, t0, s.tPre)
	tr.add("signal_feed", id, root, s.tPre, s.tReq)
	tr.add("install", id, root, s.tCtl, s.tInst)
	tr.add("notify", id, root, s.tInst, tWake)
	tr.add("confirm", id, root, tWake, tEnd)

	// Withdraw: wire withdrawal to the first egress tick that delivers
	// the attack again.
	w := &signal{mitID: p.mitID, withdraw: true}
	t0, tWake, tEnd, ticks, err = h.phase(w, p, p.withdraw, func(r fabric.TickResult) bool {
		return r.RuleDroppedBytes+r.ShaperDroppedBytes == 0 && r.DeliveredBytes >= 0.999*(attackBytes+benignBytes)
	})
	c.ticks += ticks
	if err != nil {
		c.why = "recovery: " + err.Error()
		return c
	}
	c.recover = tEnd.Sub(t0)
	root = tr.add("recover", id, -1, t0, tEnd)
	tr.add("recover.wire", id, root, t0, w.tPre)
	tr.add("remove", id, root, w.tRemCtl, w.tRemEnd)
	tr.add("recover.notify", id, root, w.tRemEnd, tWake)
	tr.add("recover.confirm", id, root, tWake, tEnd)
	c.ok = true
	// A long-running deployment bounds the controller's store of final
	// mitigations with Prune; without it every later control tick scans
	// every signal this run has made.
	if m, ok := h.x.Mitigations.Get(p.mitID); ok && p.idx%64 == 63 {
		h.x.Mitigations.Prune(m.Version + 1)
	}
	return c
}

// phase sends u on the signalling session, waits for the control plane
// to act on it, then runs egress ticks until done accepts the victim
// port's result. It returns the send time, the time the signaller held
// the spine for its first tick, and the end of the accepted tick.
func (h *mitHarness) phase(s *signal, p plannedSignal, u *bgp.Update, done func(fabric.TickResult) bool) (t0, tWake, tEnd time.Time, ticks int, err error) {
	select {
	case <-h.wake: // a stale wake-up of an earlier phase
	default:
	}
	h.cur.Store(s)
	defer h.cur.Store(nil)
	t0 = time.Now()
	limit := t0.Add(h.size.deadline)
	if err = h.sig.SendUpdate(u); err != nil {
		return
	}
	timer := time.NewTimer(h.size.deadline)
	defer timer.Stop()
	select {
	case <-h.wake:
	case <-timer.C:
		err = errDeadline
		return
	}
	if s.rejected {
		err = errors.New("rejected by mitctl")
		return
	}
	for {
		h.spine.Lock()
		t := time.Now()
		if ticks == 0 {
			tWake = t
		}
		reps, egErr := h.x.EgressTick(h.pool, p.offers, confirmDt, nil)
		tEnd = time.Now()
		h.spine.Unlock()
		ticks++
		if egErr != nil {
			err = egErr
			return
		}
		if done(reps[h.sigMember.Name].Result) {
			return
		}
		if tEnd.After(limit) {
			err = errDeadline
			return
		}
	}
}

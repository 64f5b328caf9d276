package main

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"stellar/internal/bgp"
	"stellar/internal/engine"
	"stellar/internal/fabric"
	"stellar/internal/ixp"
	"stellar/internal/member"
	"stellar/internal/mitctl"
	"stellar/internal/netpkt"
	"stellar/internal/stats"
	"stellar/internal/traffic"
)

// attackSize sizes the attack workload.
type attackSize struct {
	// victims are each attacked over three amplification vectors from
	// peers members; webPeers of them also send benign web traffic.
	victims, peers, webPeers int
	// attackBps per vector and webBps per victim, onto 1 Gbps ports.
	attackBps, webBps float64
	// ticks per engine run; every period ticks, the first half of the
	// victims request their API mitigations, which are withdrawn
	// period/2 ticks later, and one victim announces RTBH.
	ticks, period int
}

var defaultAttackSize = attackSize{
	victims: 8, peers: 200, webPeers: 50,
	attackBps: 1e9, webBps: 2e8,
	ticks: 120, period: 10,
}

// attackVectors are the multi-vector amplification mix each victim
// receives; the API mitigations drop each vector's source port.
var attackVectors = []traffic.Vector{traffic.VectorNTP, traffic.VectorDNS, traffic.VectorMemcached}

// Stage indices in engine pipeline order.
var stageNames = []string{"control", "traffic", "fabric", "monitor", "report"}

func stageIndex(name string) int {
	for i, n := range stageNames {
		if n == name {
			return i
		}
	}
	return -1
}

// stageClock is the benchmark's engine.Config.StageWrap instrumentation.
// Untraced, it stamps only the end of each tick's fabric stage (the
// first moment a tick's drops exist). Traced, it also sums each stage's
// busy time and records a span per stage run.
type stageClock struct {
	tr        *tracer
	fabricEnd []time.Time // per tick, written on the spine
	busy      [5]atomic.Int64
}

func (c *stageClock) wrap(s engine.Stage) engine.Stage {
	i := stageIndex(s.Name())
	if c.tr == nil && s.Name() != "fabric" {
		return s
	}
	t := &timedStage{Stage: s, c: c, slot: i}
	if pf, ok := s.(engine.ParallelFold); ok {
		return &timedFoldStage{timedStage: t, pf: pf}
	}
	return t
}

type timedStage struct {
	engine.Stage
	c    *stageClock
	slot int
}

func (s *timedStage) Run(ctx *engine.Ctx, in, out *engine.Batch) error {
	t0 := time.Now()
	err := s.Stage.Run(ctx, in, out)
	t1 := time.Now()
	s.done(ctx.Tick, t0, t1)
	return err
}

func (s *timedStage) done(tick int, t0, t1 time.Time) {
	if s.Name() == "fabric" {
		s.c.fabricEnd[tick] = t1
	}
	if s.c.tr != nil && s.slot >= 0 {
		s.c.busy[s.slot].Add(int64(t1.Sub(t0)))
		s.c.tr.add("engine."+stageNames[s.slot], int64(tick), -1, t0, t1)
	}
}

// timedFoldStage forwards engine.ParallelFold, so the traced run keeps
// the engine's parallel fold path.
type timedFoldStage struct {
	*timedStage
	pf engine.ParallelFold
}

func (s *timedFoldStage) RunVictim(ctx *engine.Ctx, b *engine.Batch, v int) error {
	t0 := time.Now()
	err := s.pf.RunVictim(ctx, b, v)
	s.done(ctx.Tick, t0, time.Now())
	return err
}

// countingDriver counts the offers each victim generates.
type countingDriver struct {
	*engine.SourcesDriver
	// offers[v] is only touched by the goroutine generating victim v's
	// tick; ticks are generated in order on the spine.
	offers []int64
}

func (d *countingDriver) AppendOffers(v int, dst []fabric.Offer, tick int, dt float64) []fabric.Offer {
	n := len(dst)
	dst = d.SourcesDriver.AppendOffers(v, dst, tick, dt)
	d.offers[v] += int64(len(dst) - n)
	return dst
}

// attackRun is one engine run over a freshly built exchange.
type attackRun struct {
	size    attackSize
	x       *ixp.IXP
	members []*member.Member
	driver  *countingDriver
	clock   *stageClock
	// requested[v][k] / withdrawn[v][k] are the wall times of victim v's
	// k-th mitigation request and withdrawal; rtbh counts route-server
	// UPDATEs applied.
	requested, withdrawn [][]time.Time
	rtbh                 int
}

func (a *attackRun) mitigated(v int) bool { return v < a.size.victims/2 }
func (a *attackRun) rtbhVictim() int      { return a.size.victims / 2 }

// window reports whether the mitigated victims' rules (and the RTBH
// victim's blackhole route) are in force at tick, and which period the
// tick falls in.
func (a *attackRun) window(tick int) (bool, int) {
	k := tick / a.size.period
	off := tick % a.size.period
	return off >= 1 && off < 1+a.size.period/2, k
}

func newAttackRun(size attackSize, seed uint64, tr *tracer) (*attackRun, error) {
	members := member.MakePopulation(member.PopulationConfig{
		N: size.victims + size.peers, HonoringFraction: 0.3, PortCapacityBps: 1e9, Seed: seed,
	})
	x, err := buildIXP(members, false)
	if err != nil {
		return nil, err
	}
	a := &attackRun{
		size: size, x: x, members: members,
		clock:     &stageClock{tr: tr, fabricEnd: make([]time.Time, size.ticks)},
		requested: make([][]time.Time, size.victims),
		withdrawn: make([][]time.Time, size.victims),
	}
	peers := ixp.PeersOf(members[size.victims:])
	specs := make([]engine.VictimSpec, size.victims)
	sources := make([][]engine.Source, size.victims)
	for v := 0; v < size.victims; v++ {
		specs[v] = engine.VictimSpec{Port: members[v].Name}
		rng := stats.NewRand(seed*1000 + uint64(v) + 1)
		target := members[v].Prefixes[0].Addr().Next()
		for _, vec := range attackVectors {
			at := traffic.NewAttack(vec, target, peers, size.attackBps, 0, math.MaxInt32, rng)
			at.RampTicks = 0
			sources[v] = append(sources[v], at)
		}
		sources[v] = append(sources[v], traffic.NewWebService(target, peers[:size.webPeers], size.webBps, rng))
	}
	d := engine.NewSourcesDriver(specs, sources)
	for tick := 0; tick < size.ticks; tick++ {
		off := tick % size.period
		switch off {
		case 1:
			d.AddEvents(a.requestEvent(tick))
			d.AddEvents(a.rtbhEvent(tick, true))
		case 1 + size.period/2:
			d.AddEvents(a.withdrawEvent(tick))
			d.AddEvents(a.rtbhEvent(tick, false))
		}
	}
	a.driver = &countingDriver{SourcesDriver: d, offers: make([]int64, size.victims)}
	return a, nil
}

func (a *attackRun) specs(v int) []mitctl.Spec {
	m := a.members[v]
	var out []mitctl.Spec
	for _, vec := range attackVectors {
		match := fabric.MatchAll()
		match.Proto = netpkt.ProtoUDP
		match.SrcPort = int32(vec.SrcPort)
		out = append(out, mitctl.Spec{
			Requester: m.Name,
			Target:    netip.PrefixFrom(m.Prefixes[0].Addr().Next(), 32),
			Match:     match,
			Action:    fabric.ActionDrop,
		})
	}
	return out
}

func (a *attackRun) requestEvent(tick int) engine.Event {
	return engine.Event{Tick: tick, Name: "api-mitigate", Do: func() error {
		for v := 0; v < a.size.victims; v++ {
			if !a.mitigated(v) {
				continue
			}
			a.requested[v] = append(a.requested[v], time.Now())
			for _, s := range a.specs(v) {
				if _, err := a.x.RequestMitigation(s); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

func (a *attackRun) withdrawEvent(tick int) engine.Event {
	return engine.Event{Tick: tick, Name: "api-withdraw", Do: func() error {
		for v := 0; v < a.size.victims; v++ {
			if !a.mitigated(v) {
				continue
			}
			a.withdrawn[v] = append(a.withdrawn[v], time.Now())
			for _, s := range a.specs(v) {
				if err := a.x.WithdrawMitigation(mitctl.DeriveID(s), s.Requester); err != nil {
					return err
				}
			}
		}
		return nil
	}}
}

func (a *attackRun) rtbhEvent(tick int, announce bool) engine.Event {
	m := a.members[a.rtbhVictim()]
	victim := netip.PrefixFrom(m.Prefixes[0].Addr().Next(), 32)
	return engine.Event{Tick: tick, Name: "rtbh", Do: func() error {
		a.rtbh++
		if announce {
			return a.x.Announce(m.Name, victim, []bgp.Community{bgp.CommunityBlackhole}, nil)
		}
		return a.x.Withdraw(m.Name, victim)
	}}
}

// run executes the engine and returns its series and wall time.
func (a *attackRun) run() ([]engine.VictimSeries, time.Duration, error) {
	eng := engine.New(engine.Config{
		Driver:       a.driver,
		Control:      a.x,
		DataPlane:    a.x,
		Ticks:        a.size.ticks,
		Dt:           1,
		MemberFilter: a.x.MemberFilter(),
		StageWrap:    a.clock.wrap,
	})
	t0 := time.Now()
	series, err := eng.Run()
	return series, time.Since(t0), err
}

// victimTotals is one victim's byte accounting over a run, compared
// exactly across runs of one seed.
type victimTotals struct {
	Delivered, Rule, Shaper, Congestion, Nulled float64
}

// attackCheck checks one run's series and accumulates its latency
// samples and per-layer ratios.
type attackCheck struct {
	res                      *result
	ttm, recover             []timed
	attackDropped, attackOff float64
	benignDel, benignOff     float64
}

// run checks one run's series; at is when, within the timed phase, the
// run started.
func (c *attackCheck) run(a *attackRun, series []engine.VictimSeries, at time.Duration) []victimTotals {
	size := a.size
	attackPerTick := float64(len(attackVectors)) * size.attackBps / 8
	totals := make([]victimTotals, len(series))
	for v, s := range series {
		if len(s.Samples) != size.ticks {
			c.res.check(false, "victim %d: %d samples, want %d", v, len(s.Samples), size.ticks)
			c.res.failed++
			continue
		}
		ttmDone := map[int]bool{}
		recDone := map[int]bool{}
		for tick, smp := range s.Samples {
			c.res.attempted++
			ok := true
			fail := func(cond bool, format string, args ...any) {
				if !cond {
					ok = false
					if len(c.res.failures) < 5 {
						c.res.check(false, "victim %d tick %d: "+format, append([]any{v, tick}, args...)...)
					}
				}
			}
			dropped := smp.RuleDroppedBps + smp.ShaperDroppedBps + smp.CongestionDroppedBps + smp.NulledBps
			fail(math.Abs(smp.OfferedBps-smp.DeliveredBps-dropped) <= 1e-9*smp.OfferedBps,
				"offered %v != delivered %v + dropped %v", smp.OfferedBps, smp.DeliveredBps, dropped)
			on, k := a.window(tick)
			rule := smp.RuleDroppedBps / 8
			switch {
			case a.mitigated(v) && on:
				fail(rule >= 0.99*attackPerTick, "mitigated attack dropped %.0f of %.0f bytes", rule, attackPerTick)
				c.attackDropped += rule
				c.attackOff += attackPerTick
				c.benignDel += smp.DeliveredBps / 8
				c.benignOff += size.webBps / 8
				if !ttmDone[k] && rule >= 0.99*attackPerTick && k < len(a.requested[v]) {
					ttmDone[k] = true
					c.ttm = append(c.ttm, timed{at, micros(a.clock.fabricEnd[tick].Sub(a.requested[v][k]))})
				}
			case a.mitigated(v):
				fail(rule == 0, "withdrawn mitigation still drops %.0f bytes", rule)
				if !on && k < len(a.withdrawn[v]) && tick%size.period > size.period/2 && !recDone[k] {
					recDone[k] = true
					c.recover = append(c.recover, timed{at, micros(a.clock.fabricEnd[tick].Sub(a.withdrawn[v][k]))})
				}
			default:
				fail(rule == 0 && smp.ShaperDroppedBps == 0, "unmitigated victim rule-dropped traffic")
				if v == a.rtbhVictim() {
					fail(on == (smp.NulledBps > 0), "RTBH in force %v but nulled %.0f bps", on, smp.NulledBps)
				} else {
					fail(smp.NulledBps == 0, "victim without RTBH null-routed %.0f bps", smp.NulledBps)
				}
			}
			if !ok {
				c.res.failed++
			}
			t := &totals[v]
			t.Delivered += smp.DeliveredBps
			t.Rule += smp.RuleDroppedBps
			t.Shaper += smp.ShaperDroppedBps
			t.Congestion += smp.CongestionDroppedBps
			t.Nulled += smp.NulledBps
		}
	}
	return totals
}

func runAttack(cfg runConfig) (*result, error) {
	size := cfg.size.(attackSize)
	if size.period < 4 || size.ticks < size.period {
		return nil, fmt.Errorf("attack: period %d must be at least 4 and fit in %d ticks", size.period, size.ticks)
	}
	res := newResult()
	var clock setupClock

	// Warm-up: one full run before timing; its totals are the reference
	// every timed run must reproduce exactly.
	clock.begin()
	warm, err := newAttackRun(size, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	warmSeries, _, err := warm.run()
	if err != nil {
		return nil, fmt.Errorf("attack: warm-up: %w", err)
	}
	warmChk := &attackCheck{res: newResult()}
	want := warmChk.run(warm, warmSeries, 0)
	clock.end()
	for _, f := range warmChk.res.failures {
		res.check(false, "warm-up: %s", f)
	}
	res.check(warm.x.Mitigations.ErrorCount() == 0, "warm-up: mitctl recorded %d errors", warm.x.Mitigations.ErrorCount())

	chk := &attackCheck{res: res}
	var flowRates []float64
	flowRate := rateWindows{phase: time.Duration(cfg.seconds * float64(time.Second))}
	updateRate := flowRate
	var flows, rtbh int64
	var wall time.Duration
	var rt rtSample
	var last *attackRun
	var lastSeries []engine.VictimSeries
	var busy [5]time.Duration // per stage, summed over the timed runs
	runs := 0
	for wall.Seconds() < cfg.seconds {
		clock.begin()
		a, err := newAttackRun(size, cfg.seed, cfg.tr)
		if err != nil {
			return nil, err
		}
		clock.end()
		before := readRuntime()
		series, d, err := a.run()
		after := readRuntime()
		if err != nil {
			return nil, fmt.Errorf("attack: run %d: %w", runs, err)
		}
		rt.add(before, after)
		runs++
		at := wall
		wall += d
		var n int64
		for _, c := range a.driver.offers {
			n += c
		}
		flows += n
		rtbh += int64(a.rtbh)
		flowRates = append(flowRates, float64(n)/d.Seconds())
		flowRate.mark(wall, flows)
		updateRate.mark(wall, rtbh)
		got := chk.run(a, series, at)
		for v := range got {
			res.check(got[v] == want[v], "run %d victim %d: totals %+v differ from the warm-up run's %+v", runs, v, got[v], want[v])
		}
		res.check(a.x.Mitigations.ErrorCount() == 0, "run %d: mitctl recorded %d errors", runs, a.x.Mitigations.ErrorCount())
		last, lastSeries = a, series
		for i := range busy {
			busy[i] += time.Duration(a.clock.busy[i].Load())
		}
	}
	res.e2e["setup_s"] = clock.median()
	res.e2e["flows_per_s"] = flowRate.rate()
	res.e2e["updates_per_s"] = updateRate.rate()
	res.e2e["ttm_p50_us"] = windowed(chk.ttm, wall, 50)
	res.e2e["ttm_p99_us"] = windowed(chk.ttm, wall, 99)
	res.e2e["recover_p50_us"] = windowed(chk.recover, wall, 50)
	res.info["runs"] = runs
	res.info["setups"] = clock.samples
	res.info["flows_per_run"] = flows / int64(runs)
	res.info["flows_per_s_runs"] = summarize(flowRates)
	res.info["ttm_us"] = summarize(values(chk.ttm))
	res.info["recover_us"] = summarize(values(chk.recover))
	res.info["victim_totals_bps"] = want

	if chk.attackOff > 0 {
		res.layer["fabric.attack_drop_frac"] = chk.attackDropped / chk.attackOff
	}
	if chk.benignOff > 0 {
		res.layer["fabric.benign_delivered_frac"] = chk.benignDel / chk.benignOff
	}
	runtimeStats(res, rtSample{}, rt, int(flows))
	if cfg.tr != nil {
		attackLayers(res, busy, runs*size.ticks, flows, wall)
	}
	// Read last: the samples above are the benchmark's, not the
	// program's; the last run's exchange and series are the program's
	// live state.
	res.e2e["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	runtime.KeepAlive(lastSeries)
	return res, nil
}

// attackLayers derives the engine per-layer metrics from the stages'
// busy time summed over every timed run.
func attackLayers(res *result, busy [5]time.Duration, ticks int, flows int64, wall time.Duration) {
	var total time.Duration
	for i, name := range stageNames {
		total += busy[i]
		res.layer["engine."+name+"_us_per_tick"] = micros(busy[i]) / float64(ticks)
	}
	res.layer["engine.tick_wall_us"] = micros(wall) / float64(ticks)
	res.layer["engine.busy_over_wall"] = float64(total) / float64(wall)
	if flows > 0 {
		res.layer["traffic.ns_per_offer"] = float64(busy[1]) / float64(flows)
		res.layer["fabric.ns_per_flow"] = float64(busy[2]) / float64(flows)
		res.layer["flowmon.ns_per_record"] = float64(busy[3]) / float64(flows)
	}
}

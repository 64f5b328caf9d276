package mitctl

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"stellar/internal/bgp"
	"stellar/internal/core"
	"stellar/internal/fabric"
	"stellar/internal/mitigation"
	"stellar/internal/rib"
	"stellar/internal/routeserver"
)

// This file holds the three signaling-channel adapters. Each is a thin
// compiler from its wire format into Spec; the Controller neither knows
// nor cares which channel a request arrived on, which is what makes the
// channels interchangeable (the cross-channel equivalence property).

// SpecFromSignal compiles one decoded Advanced Blackholing extended
// community (the "IXP:2:123" scheme of Section 5.3) into a mitigation
// spec for the announced target prefix. SelCustom signals resolve their
// match template through the portal — the member's own rules only, the
// portal being the authorization boundary.
func SpecFromSignal(requester string, target netip.Prefix, rs core.RuleSpec, portal *core.Portal) (Spec, error) {
	spec := Spec{
		Requester: requester,
		Target:    target,
		Channel:   ChannelCommunity,
	}
	if rs.Selector == core.SelCustom {
		if portal == nil {
			return Spec{}, core.ErrNoSuchRule
		}
		custom, err := portal.Lookup(requester, rs.CustomID)
		if err != nil {
			return Spec{}, err
		}
		spec.Match = custom.MatchTemplate
		spec.Match.DstIP = netip.Prefix{} // the announced prefix wins
		spec.Action = custom.Action
		spec.ShapeRateBps = custom.ShapeRateBps
		return spec, nil
	}
	spec.Match = rs.Match(fabric.MatchAll())
	spec.Action = rs.Action
	spec.ShapeRateBps = rs.ShapeRateBps
	return spec, nil
}

// SpecsFromFlowSpec compiles an RFC 5575 flow specification plus its
// traffic-filtering action (traffic-rate extended community, §7) into
// mitigation specs: one per exact-match pattern the NLRI expands to
// (multi-value port/protocol sets expand via
// mitigation.FlowSpecToMatches). The destination prefix component names
// the mitigation target and is required.
func SpecsFromFlowSpec(requester string, fs *bgp.FlowSpec, attrs *bgp.PathAttrs, ttl float64) ([]Spec, error) {
	action, rateBps, ok := mitigation.FlowSpecAction(attrs)
	if !ok {
		return nil, fmt.Errorf("mitctl: flowspec carries no traffic-filtering action")
	}
	dst := fs.Component(bgp.FSDstPrefix)
	if dst == nil || !dst.Prefix.IsValid() {
		return nil, fmt.Errorf("mitctl: flowspec has no destination prefix to mitigate")
	}
	matches, err := mitigation.FlowSpecToMatches(fs)
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(matches))
	for i, m := range matches {
		specs[i] = Spec{
			Requester:    requester,
			Target:       dst.Prefix,
			Match:        m,
			Action:       action,
			ShapeRateBps: rateBps,
			TTL:          ttl,
			Channel:      ChannelFlowSpec,
		}
	}
	return specs, nil
}

// SpecFromPortalRule compiles a customer-portal rule into a mitigation
// spec for the given target prefix.
func SpecFromPortalRule(r core.CustomRule, target netip.Prefix, ttl float64) Spec {
	m := r.MatchTemplate
	m.DstIP = netip.Prefix{} // the requested target wins
	return Spec{
		Requester:    r.Member,
		Target:       target,
		Match:        m,
		Action:       r.Action,
		ShapeRateBps: r.ShapeRateBps,
		TTL:          ttl,
		Channel:      ChannelPortal,
	}
}

// CommunityChannel is the BGP signaling adapter: it consumes the route
// server's southbound feed, tracks announced paths in a RIB, and for
// every path a batch of events changed compiles the path's Advanced
// Blackholing signals into mitigation requests and withdrawals. A
// re-announcement with the same signals refreshes (idempotent); changed
// signals withdraw the old specs and request the new ones; a withdrawn
// path (or session loss) withdraws everything it requested.
type CommunityChannel struct {
	ctl *Controller

	mu      sync.Mutex
	rib     *rib.Table
	desired map[rib.PathKey][]desiredSpec
	// refs counts, per mitigation ID, the paths currently desiring it.
	// Content-derived IDs mean distinct paths (ADD-PATH duplicates of
	// the same announcement) can request the same mitigation; it must
	// only be withdrawn when the LAST such path goes away.
	refs map[string]int

	// observe, when non-nil, sees every controller call just before it
	// is made (a test seam).
	observe func(channelCall)
}

type desiredSpec struct {
	id   string
	spec Spec
}

// channelCall is one controller call a batch compiles to: a Withdraw
// of id on behalf of requester, or a Request of spec.
type channelCall struct {
	withdraw  bool
	id        string
	requester string
	spec      Spec
}

type compileErr struct {
	member string
	target netip.Prefix
	err    error
}

// channelPlan is the controller work one batch compiles to, run outside
// the channel lock (controller events fire subscribers synchronously).
type channelPlan struct {
	errs  []compileErr
	calls []channelCall
}

// NewCommunityChannel attaches a community adapter to a controller.
func NewCommunityChannel(ctl *Controller) *CommunityChannel {
	return &CommunityChannel{
		ctl:     ctl,
		rib:     rib.New(),
		desired: make(map[rib.PathKey][]desiredSpec),
		refs:    make(map[string]int),
	}
}

// RIBLen returns the number of signaling paths the channel tracks.
func (ch *CommunityChannel) RIBLen() int {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.rib.Len()
}

// HandleEvent folds one route-server event into the channel.
func (ch *CommunityChannel) HandleEvent(ev routeserver.ControllerEvent, now float64) {
	ch.HandleEvents([]routeserver.ControllerEvent{ev}, now)
}

// HandleEvents folds a batch of route-server events into the channel's
// RIB and compiles the resulting path diff into controller requests and
// withdrawals. It pairs with the route server's batched feed: one diff
// per batch, over only the keys the batch touched, so its cost follows
// the batch size, not the table size.
func (ch *CommunityChannel) HandleEvents(evs []routeserver.ControllerEvent, now float64) {
	if len(evs) == 0 {
		return
	}
	ch.mu.Lock()
	plan := ch.planLocked(ch.applyLocked(evs))
	ch.mu.Unlock()
	ch.execute(plan, now)
}

// applyLocked folds evs into the RIB and returns the batch's path diff.
// It records the pre-batch path of every key the batch touches (nil:
// absent before the batch) on first touch; the table is private and
// only mutated here under ch.mu, so the before/after pairs of those
// keys are exactly the whole-table diff.
func (ch *CommunityChannel) applyLocked(evs []routeserver.ControllerEvent) rib.Diff {
	before := make(map[rib.PathKey]*rib.Path)
	touch := func(key rib.PathKey) {
		if _, ok := before[key]; !ok {
			before[key] = ch.rib.Get(key)
		}
	}
	for _, ev := range evs {
		for _, prefix := range ev.Withdrawn {
			key := rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}
			touch(key)
			if !ch.rib.Remove(key) && ev.PathID != 0 {
				// Wire-feed withdrawals carry no attributes, so the peer
				// label may not match the installed path's; the ADD-PATH
				// identifier alone names the path.
				if p := ch.rib.FindByPathID(prefix, ev.PathID); p != nil {
					touch(p.Key)
					ch.rib.Remove(p.Key)
				}
			}
		}
		for _, prefix := range ev.Announced {
			key := rib.PathKey{Prefix: prefix, Peer: ev.Peer, PathID: ev.PathID}
			touch(key)
			ch.rib.Add(key, ev.PeerAS, ev.Attrs)
		}
	}
	old := make(rib.Snapshot, len(before))
	next := make(rib.Snapshot, len(before))
	for key, p := range before {
		if p != nil {
			old[key] = p
		}
		if p := ch.rib.Get(key); p != nil {
			next[key] = p
		}
	}
	return rib.DiffSnapshots(old, next)
}

// planLocked reconciles each path in diff against the specs it desired
// before, updating desired and refs, and returns the controller work.
func (ch *CommunityChannel) planLocked(diff rib.Diff) channelPlan {
	var plan channelPlan
	reconcile := func(key rib.PathKey, want []desiredSpec) {
		have := ch.desired[key]
		wantByID := make(map[string]bool, len(want))
		for _, d := range want {
			wantByID[d.id] = true
		}
		haveByID := make(map[string]bool, len(have))
		for _, d := range have {
			haveByID[d.id] = true
		}
		// Deterministic order: withdrawals of stale specs first (sorted),
		// then requests (sorted) — replacements free hardware budget
		// before consuming it. A stale spec only withdraws when this was
		// the last path desiring its mitigation.
		var stale []desiredSpec
		for _, d := range have {
			if !wantByID[d.id] {
				stale = append(stale, d)
			}
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
		for _, d := range stale {
			if ch.refs[d.id]--; ch.refs[d.id] <= 0 {
				delete(ch.refs, d.id)
				plan.calls = append(plan.calls, channelCall{withdraw: true, id: d.id, requester: d.spec.Requester})
			}
		}
		// Every wanted spec is requested, including ones this path already
		// asked for: a re-announcement is BGP's keepalive for the request,
		// and Request is idempotent — a live identical spec only re-arms
		// its TTL (no churn), while one that expired meanwhile starts a
		// fresh lifecycle.
		fresh := append([]desiredSpec(nil), want...)
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].id < fresh[j].id })
		for _, d := range fresh {
			if !haveByID[d.id] {
				ch.refs[d.id]++
			}
			plan.calls = append(plan.calls, channelCall{id: d.id, requester: d.spec.Requester, spec: d.spec})
		}
		if len(want) == 0 {
			delete(ch.desired, key)
		} else {
			ch.desired[key] = want
		}
	}
	specsFor := func(p *rib.Path) []desiredSpec {
		var out []desiredSpec
		seen := make(map[string]bool)
		for _, rs := range core.SignalsFrom(&p.Attrs) {
			spec, err := SpecFromSignal(p.Key.Peer, p.Key.Prefix, rs, ch.ctl.Portal())
			if err != nil {
				plan.errs = append(plan.errs, compileErr{p.Key.Peer, p.Key.Prefix, err})
				continue
			}
			// spec.TTL stays 0: the controller's DefaultTTL is the one
			// source of truth for community-signaled lifetimes.
			id := DeriveID(spec)
			if seen[id] {
				continue // duplicate signal in one announcement
			}
			seen[id] = true
			out = append(out, desiredSpec{id: id, spec: spec})
		}
		return out
	}
	for _, p := range diff.Removed {
		reconcile(p.Key, nil)
	}
	for _, p := range diff.Added {
		reconcile(p.Key, specsFor(p))
	}
	for _, p := range diff.Changed {
		reconcile(p.Key, specsFor(p))
	}
	return plan
}

// execute runs a batch's controller work: compile errors first, then
// the calls in order.
func (ch *CommunityChannel) execute(plan channelPlan, now float64) {
	for _, e := range plan.errs {
		ch.ctl.noteError(e.member, e.target, e.err)
	}
	for _, a := range plan.calls {
		if ch.observe != nil {
			ch.observe(a)
		}
		if a.withdraw {
			// Ignore not-owner/unknown errors: the mitigation may have
			// been withdrawn directly through the API already.
			_ = ch.ctl.Withdraw(a.id, a.requester, now)
			continue
		}
		// Validation/admission rejections are recorded in the store and
		// on the event stream by the controller itself.
		_, _ = ch.ctl.Request(a.spec, now)
	}
}

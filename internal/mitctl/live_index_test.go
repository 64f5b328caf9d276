package mitctl

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"stellar/internal/core"
)

// nopManager accepts every change; it keeps the data plane out of
// tests about the controller's own bookkeeping.
type nopManager struct{}

func (nopManager) Apply(core.ConfigChange) error { return nil }
func (nopManager) Name() string                  { return "nop" }

// historySpec is the i-th of a family of distinct member-0 specs.
func historySpec(i int) Spec {
	s := dropSpec(0)
	s.Target = netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 0, 0, byte(i)}), 32)
	s.Match.SrcPort = int32(1 + i/256)
	return s
}

// fillHistory requests and withdraws n distinct mitigations and drains
// the queue, leaving n final mitigations in the store.
func fillHistory(tb testing.TB, c *Controller, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		m, err := c.Request(historySpec(i), 0)
		if err != nil {
			tb.Fatal(err)
		}
		if err := c.Withdraw(m.ID, "", 0); err != nil {
			tb.Fatal(err)
		}
	}
	for c.PendingChanges() > 0 {
		c.Process(0)
	}
}

// TestUnprunedHistoryDoesNotChangeBehaviour pins that final mitigations
// left in the store are inert: a controller holding 10k of them emits
// the same events and ends in the same state as one that pruned them.
func TestUnprunedHistoryDoesNotChangeBehaviour(t *testing.T) {
	newCtl := func() (*Controller, func() []Event) {
		h := newHarness(t, 1, nil)
		cfg := h.config()
		cfg.Manager = nopManager{}
		cfg.QueueBurst = 1 << 20
		cfg.MaxActivePerMember = 3
		cfg.DefaultTTL = 5
		c := New(cfg)
		fillHistory(t, c, 10000)
		return c, collectEvents(c)
	}
	kept, keptEvents := newCtl()
	pruned, prunedEvents := newCtl()
	cutoff := pruned.Snapshot().Version + 1
	if n := pruned.Prune(cutoff); n != 10000 {
		t.Fatalf("pruned %d, want 10000", n)
	}

	// scenario runs the same requests on a controller and returns its
	// live set mid-way.
	scenario := func(c *Controller) []Mitigation {
		// Every spec re-uses an ID the history holds as final.
		for i := 0; i < 4; i++ { // the fourth exceeds MaxActivePerMember
			c.Request(historySpec(i), 1)
		}
		c.Process(2)
		c.Request(historySpec(1), 3) // refresh: expires at 8, not 6
		c.Withdraw(DeriveID(historySpec(2)), memberName(0), 4)
		c.Request(historySpec(5), 4)
		c.Process(5)
		active := c.Active()
		c.Process(6.5) // spec 0 expires
		c.Process(10)  // specs 1 and 5 expire
		return active
	}
	if g, w := scenario(kept), scenario(pruned); len(g) != 3 || !reflect.DeepEqual(g, w) {
		t.Fatalf("live sets diverge or are not 3:\n kept   %+v\n pruned %+v", g, w)
	}
	if g, w := keptEvents(), prunedEvents(); !reflect.DeepEqual(g, w) {
		t.Fatalf("event streams diverge:\n kept   %v\n pruned %v", eventTypes(g), eventTypes(w))
	}
	if g := len(keptEvents()); g < 12 {
		t.Fatalf("only %d events: scenario too quiet", g)
	}
	// Specs 0-3 and 5 replaced their history records.
	if n := kept.Prune(cutoff); n != 10000-5 {
		t.Fatalf("kept controller pruned %d of its history, want 9995", n)
	}
	if g, w := kept.Snapshot(), pruned.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("snapshots diverge:\n kept   %+v\n pruned %+v", g, w)
	}
}

// BenchmarkControllerProcess measures one control tick over a few live
// mitigations while the store holds a growing unpruned history.
func BenchmarkControllerProcess(b *testing.B) {
	for _, final := range []int{100, 100000} {
		b.Run(fmt.Sprintf("final=%d", final), func(b *testing.B) {
			h := newHarness(b, 1, nil)
			cfg := h.config()
			cfg.Manager = nopManager{}
			cfg.QueueBurst = 1 << 20
			c := New(cfg)
			fillHistory(b, c, final)
			for i := 0; i < 8; i++ {
				s := historySpec(i)
				s.Match.SrcPort = 9999
				if _, err := c.Request(s, 0); err != nil {
					b.Fatal(err)
				}
			}
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 0.01
				c.Process(now)
			}
		})
	}
}

// TestLatencyWindowBounded pins the retention window: a controller that
// has applied far more changes than maxRetainedLatencies keeps at most
// that many, the most recent last.
func TestLatencyWindowBounded(t *testing.T) {
	h := newHarness(t, 1, nil)
	cfg := h.config()
	cfg.Manager = nopManager{}
	cfg.QueueBurst = 1 << 20
	c := New(cfg)
	n := maxRetainedLatencies * 2
	for i := 0; i < n; i++ {
		m, err := c.Request(historySpec(i), float64(i))
		if err != nil {
			t.Fatal(err)
		}
		c.Process(float64(i) + 0.5) // install: latency 0.5
		c.Withdraw(m.ID, "", float64(i)+0.5)
		c.Process(float64(i) + 0.75) // removal: latency 0.25
	}
	if got := c.AppliedChanges(); got != 2*n {
		t.Fatalf("applied %d changes, want %d", got, 2*n)
	}
	lats := c.Latencies()
	if len(lats) == 0 || len(lats) > maxRetainedLatencies {
		t.Fatalf("retained %d latencies, window is %d", len(lats), maxRetainedLatencies)
	}
	if last := lats[len(lats)-1]; last != 0.25 {
		t.Fatalf("most recent latency %v, want the last removal's 0.25", last)
	}
}

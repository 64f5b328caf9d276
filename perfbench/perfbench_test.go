package main

import (
	"testing"
	"time"
)

func TestSummarizeReportsHighestSupportedPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		percentile float64
		value      float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 95, 950},
		{100, 90, 90},
		{20, 50, 10},
		{19, 0, 0},
	} {
		got := summarize(seq(tc.n))
		if got.N != tc.n || got.Percentile != tc.percentile || got.Value != tc.value {
			t.Errorf("summarize(1..%d) = %+v, want percentile %v = %v over %d samples",
				tc.n, got, tc.percentile, tc.value, tc.n)
		}
	}
	if got := summarize(seq(1000)); got.P50 != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got.P50)
	}
}

func TestWindowedReadsTheQuietestQuarter(t *testing.T) {
	// The first three quarters of the phase are slow, the last fast.
	phase := 60 * time.Second
	sample := func(n int) []timed {
		xs := make([]timed, n)
		for i := range xs {
			at := phase * time.Duration(2*i+1) / time.Duration(2*n)
			us := 100.0
			if at < phase*3/4 {
				us = 200
			}
			if i%100 == 99 {
				us += 1000 // one sample in a hundred is slow
			}
			xs[i] = timed{at, us}
		}
		return xs
	}
	// 600 samples leave six beyond the 99th percentile: one pooled
	// percentile over the whole phase.
	if got := windowed(sample(600), phase, 99); got != 200 {
		t.Errorf("p99 of 600 samples = %v, want the pooled 200", got)
	}
	// 6000 samples: 20 windows of 300, fifteen slow and five fast; both
	// percentiles are read on the five fast ones.
	if got := windowed(sample(6000), phase, 99); got != 100 {
		t.Errorf("p99 of 6000 samples = %v, want 100", got)
	}
	if got := windowed(sample(6000), phase, 50); got != 100 {
		t.Errorf("p50 of 6000 samples = %v, want 100", got)
	}
}

func TestRateWindowsReadsTheQuietestQuarter(t *testing.T) {
	// 100 operations a second with a stall, 200 a second in the last
	// quarter.
	r := rateWindows{phase: 10 * time.Second}
	var n int64
	for at := 100 * time.Millisecond; at <= r.phase; at += 100 * time.Millisecond {
		switch {
		case at > 4*time.Second && at <= 5*time.Second: // stalled
		case at > 7500*time.Millisecond:
			n += 20
		default:
			n += 10
		}
		r.mark(at, n)
	}
	if got := r.rate(); got < 199.999 || got > 200.001 {
		t.Errorf("rate = %v, want the fast windows' 200", got)
	}
}

var smallMitigate = mitigateSize{
	prefixes: 40, pathsPerPrefix: 2, preloadMembers: 3,
	churnRate: 100, churnPrefixes: 8,
	attackFlows: 4, benignFlows: 2,
	segments: 2, warmSignals: 5, deadline: 2 * time.Second,
}

var smallAttack = attackSize{
	victims: 4, peers: 20, webPeers: 5,
	attackBps: 1e9, webBps: 2e8,
	ticks: 12, period: 6,
}

var smallReplay = replaySize{
	peers: 4, prefixes: 40, pathsPerPrefix: 2,
	records: 200, perSecond: 10,
}

// requireClean fails unless the run passed every check and reported a
// non-zero value for every end-to-end metric.
func requireClean(t *testing.T, res *result) {
	t.Helper()
	if res.failed != 0 || len(res.failures) != 0 {
		t.Fatalf("%d failed operations, failed checks: %v", res.failed, res.failures)
	}
	if res.attempted == 0 {
		t.Fatal("no operations attempted")
	}
	for name := range endToEndUnits {
		if v := res.e2e[name]; !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
		}
	}
}

func TestSmallRunsPassTheirChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(runConfig) (*result, error)
		size any
	}{
		{"mitigate", runMitigate, smallMitigate},
		{"attack", runAttack, smallAttack},
		{"replay", runReplay, smallReplay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(runConfig{seed: 7, seconds: 0.3, size: tc.size})
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res)
		})
	}
}

func TestReplayCheckFailsOnWrongExpectation(t *testing.T) {
	c, err := newCapture(smallReplay, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.records++ // claim one record more than the capture holds
	p, err := newReplayPass(smallReplay, c)
	if err != nil {
		t.Fatal(err)
	}
	st := &replayStats{res: newResult()}
	if err := st.replay(p, c, nil); err != nil {
		t.Fatal(err)
	}
	if len(st.res.failures) != 1 {
		t.Fatalf("failed checks = %v, want exactly the record-count mismatch", st.res.failures)
	}
}

func TestAttackRunsAreDeterministic(t *testing.T) {
	totals := func() []victimTotals {
		a, err := newAttackRun(smallAttack, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		series, _, err := a.run()
		if err != nil {
			t.Fatal(err)
		}
		chk := &attackCheck{res: newResult()}
		got := chk.run(a, series, 0)
		if len(chk.res.failures) != 0 {
			t.Fatalf("failed checks: %v", chk.res.failures)
		}
		return got
	}
	a, b := totals(), totals()
	for v := range a {
		if a[v] != b[v] {
			t.Errorf("victim %d: totals %+v then %+v", v, a[v], b[v])
		}
	}
}

func TestTracedMitigateBlockingPathCoversTimeToMitigate(t *testing.T) {
	tr := newTracer()
	res, err := runMitigate(runConfig{seed: 9, seconds: 0.5, size: smallMitigate, tr: tr})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	cov := res.layer["trace.path_self_over_ttm"]
	if cov < 0.95 || cov > 1.0001 {
		t.Fatalf("blocking-path self-times cover %.4f of the traced time-to-mitigate, want within 5%%", cov)
	}
	for _, name := range blockingPath {
		if len(tr.durations(name)) == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

func TestSelfTimeSubtractsChildrenUnion(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the root
	}
	self := selfTimes(spans)
	if want := []int64{50, 30, 20, 30}; self[0] != want[0] || self[1] != want[1] || self[2] != want[2] || self[3] != want[3] {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

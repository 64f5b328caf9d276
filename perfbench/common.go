package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workload is one seeded input set and the code that measures it.
type workload struct {
	run  func(runConfig) (*result, error)
	size any
	// headline is the end-to-end metric the tracing overhead is read on.
	headline       string
	higherIsBetter bool
}

var workloads = map[string]workload{
	"mitigate": {run: runMitigate, size: defaultMitigateSize, headline: "ttm_p50_us"},
	"attack":   {run: runAttack, size: defaultAttackSize, headline: "flows_per_s", higherIsBetter: true},
	"replay":   {run: runReplay, size: defaultReplaySize, headline: "updates_per_s", higherIsBetter: true},
}

type runConfig struct {
	seed    uint64
	seconds float64
	// size is the workload's size struct (mitigateSize, attackSize,
	// replaySize); tests pass small ones.
	size any
	// tr records spans when non-nil (the traced run).
	tr *tracer
}

// result is one run's outcome: operation counts, failed checks and both
// metric sets.
type result struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layer     map[string]float64
	info      map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// tail is a latency distribution summary: the median, the highest
// conventional percentile with at least ten samples beyond it, and the
// sample count.
type tail struct {
	N          int     `json:"n"`
	P50        float64 `json:"p50"`
	Percentile float64 `json:"tail_percentile"`
	Value      float64 `json:"tail_value"`
}

// tailPercentiles lists the candidate percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// summarize returns the tail summary of xs. Percentiles use the
// nearest-rank method; with fewer than ten samples beyond even the
// median, Percentile is 0.
func summarize(xs []float64) tail {
	t := tail{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t.P50 = rank(s, 50)
	for _, p := range tailPercentiles {
		if len(s)-rankIndex(len(s), p)-1 >= 10 {
			t.Percentile = p
			t.Value = rank(s, p)
			break
		}
	}
	return t
}

// percentile returns the nearest-rank p-th percentile of xs (0 when
// empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return rank(s, p)
}

func rank(sorted []float64, p float64) float64 { return sorted[rankIndex(len(sorted), p)] }

// rankIndex is the 0-based nearest-rank index of the p-th percentile of
// n samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windows is how many equal windows a timed phase is split into. Every
// timed metric is read on the quietest quarter of them: a latency
// percentile on the windows where that percentile is lowest, a rate on
// the windows with the most operations per second. On a shared host
// another tenant takes the CPUs, cache and memory bandwidth for seconds
// or minutes at a time, which only ever slows the windows it overlaps;
// the quietest quarter of a run is what it moves least, while a change
// that slows the program slows every window.
const windows = 20

// timed is a latency sample stamped with when, within the timed phase,
// its operation started.
type timed struct {
	at time.Duration
	us float64
}

// windowed returns the p-th percentile of the samples of the quietest
// quarter of the phase's windows: the windows are ranked by their own
// p-th percentile and pooled, lowest first, until the pool holds a
// quarter of the windows that have samples and at least ten samples
// beyond the percentile (all of them when the run has fewer). phase is
// the timed phase's length.
func windowed(xs []timed, phase time.Duration, p float64) float64 {
	need := int(math.Ceil(1000/(100-p) - 1e-9))
	type window struct {
		us   []float64
		rank float64
	}
	per := make([]window, windows)
	for _, x := range xs {
		w := int(int64(x.at) * windows / int64(phase+1))
		if w >= windows {
			w = windows - 1
		}
		per[w].us = append(per[w].us, x.us)
	}
	var full []window
	for _, w := range per {
		if len(w.us) > 0 {
			w.rank = percentile(w.us, p)
			full = append(full, w)
		}
	}
	sort.SliceStable(full, func(i, j int) bool { return full[i].rank < full[j].rank })
	var pool []float64
	for i, w := range full {
		if 4*i >= len(full) && len(pool) >= need {
			break
		}
		pool = append(pool, w.us...)
	}
	return percentile(pool, p)
}

// rateWindows turns cumulative operation counts, read at the end of
// every cycle, into operations per second over the quietest quarter of
// the phase's windows: those with the highest rates.
type rateWindows struct {
	phase time.Duration
	// total is the count carried over from earlier segments.
	total int64
	// marks[w] is the (time, count) last seen in window w.
	marks [windows]struct {
		at time.Duration
		n  int64
	}
	seen [windows]bool
}

func (r *rateWindows) mark(at time.Duration, n int64) {
	w := int(int64(at) * windows / int64(r.phase+1))
	if w >= windows {
		w = windows - 1
	}
	r.marks[w].at, r.marks[w].n, r.seen[w] = at, n, true
}

func (r *rateWindows) rate() float64 {
	type seg struct {
		d time.Duration
		n int64
	}
	var segs []seg
	var prevAt time.Duration
	var prevN int64
	for w := 0; w < windows; w++ {
		if !r.seen[w] {
			continue
		}
		m := r.marks[w]
		if m.at > prevAt {
			segs = append(segs, seg{m.at - prevAt, m.n - prevN})
		}
		prevAt, prevN = m.at, m.n
	}
	rate := func(s seg) float64 { return float64(s.n) / s.d.Seconds() }
	sort.SliceStable(segs, func(i, j int) bool { return rate(segs[i]) > rate(segs[j]) })
	var sum seg
	for _, s := range segs[:(len(segs)+3)/4] {
		sum.d += s.d
		sum.n += s.n
	}
	if sum.d == 0 {
		return 0
	}
	return rate(sum)
}

func values(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.us
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// rtSample is a runtime/metrics reading: GC and total CPU time and
// cumulative heap allocation.
type rtSample struct {
	gcCPU, totalCPU      float64
	allocBytes, allocObj uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
		allocObj:   s[3].Value.Uint64(),
	}
}

// add accumulates the difference between two readings.
func (r *rtSample) add(before, after rtSample) {
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
	r.allocBytes += after.allocBytes - before.allocBytes
	r.allocObj += after.allocObj - before.allocObj
}

// runtimeStats fills the runtime per-layer metrics for ops operations
// measured between before and after.
func runtimeStats(r *result, before, after rtSample, ops int) {
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.layer["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if ops > 0 {
		r.layer["runtime.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
		r.layer["runtime.allocs_per_op"] = float64(after.allocObj-before.allocObj) / float64(ops)
	}
}

// liveHeapMB forces two collections (the second empties the sync.Pool
// caches the first kept) and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupClock accumulates set-up durations; the reported setup_s is their
// median.
type setupClock struct {
	samples []float64
	start   time.Time
}

func (c *setupClock) begin()          { c.start = time.Now() }
func (c *setupClock) end()            { c.samples = append(c.samples, time.Since(c.start).Seconds()) }
func (c *setupClock) median() float64 { return median(c.samples) }

// Command perfbench is the repository benchmark: it measures how fast a
// member's mitigation signal becomes a drop in the IXP fabric, how many
// flows the data plane carries per second and how many UPDATEs the route
// server ingests per second, each on a seeded workload, and checks every
// run's outputs.
//
//	perfbench -workload mitigate|attack|replay -seed N -seconds S -trace 0|1
//
// With -trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with -trace 1 it holds every per-layer metric,
// measured from spans recorded around the calls into each layer (see
// README.md). The line before it carries the run's details: sample
// counts, the runtime settings and any failed check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// Metric units. Every end-to-end metric is reported on every workload and
// every per-layer metric on every traced run; a per-layer metric of a
// layer the workload does not exercise reads 0.
var endToEndUnits = map[string]string{
	"ttm_p50_us":     "us",
	"ttm_p99_us":     "us",
	"recover_p50_us": "us",
	"flows_per_s":    "1/s",
	"updates_per_s":  "1/s",
	"setup_s":        "s",
	"heap_mb":        "MB",
}

var perLayerUnits = map[string]string{
	"bgppipe.wire_us_p50":            "us",
	"routeserver.signal_feed_us_p50": "us",
	"mitctl.channel_paths":           "count",
	"routeserver.export_us_p50":      "us",
	"routeserver.churn_apply_us_p50": "us",
	"routeserver.rx_backlog_max":     "count",
	"gen.churn_late_ms_max":          "ms",
	"mitctl.install_us_p50":          "us",
	"mitctl.remove_us_p50":           "us",
	"mitctl.errors":                  "count",
	"mitctl.rejected":                "count",
	"fabric.confirm_us_p50":          "us",
	"harness.notify_us_p50":          "us",
	"engine.control_us_per_tick":     "us",
	"engine.traffic_us_per_tick":     "us",
	"engine.fabric_us_per_tick":      "us",
	"engine.monitor_us_per_tick":     "us",
	"engine.report_us_per_tick":      "us",
	"engine.tick_wall_us":            "us",
	"engine.busy_over_wall":          "ratio",
	"traffic.ns_per_offer":           "ns",
	"fabric.ns_per_flow":             "ns",
	"flowmon.ns_per_record":          "ns",
	"fabric.attack_drop_frac":        "ratio",
	"fabric.benign_delivered_frac":   "ratio",
	"bgp.scan_us_per_record":         "us",
	"ixp.apply_us_p50":               "us",
	"routeserver.feed_us_p50":        "us",
	"routeserver.exports_per_update": "count",
	"mitctl.control_tick_us_p50":     "us",
	"runtime.gc_cpu_frac":            "ratio",
	"runtime.alloc_bytes_per_op":     "B",
	"runtime.allocs_per_op":          "count",
	"trace.path_self_over_ttm":       "ratio",
	"trace.overhead_frac":            "ratio",
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "mitigate, attack or replay")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps of traced runs")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, outDir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want mitigate, attack or replay)", workload)
	}
	cfg := runConfig{seed: seed, seconds: seconds, size: w.size}
	var res *result
	if !traced {
		r, err := w.run(cfg)
		if err != nil {
			return err
		}
		res = r
	} else {
		r, tr, err := runTraced(w, cfg)
		if err != nil {
			return err
		}
		res = r
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
		if err := tr.writeFile(path); err != nil {
			return err
		}
		res.info["trace_file"] = path
	}
	return emit(os.Stdout, workload, seed, traced, res)
}

// runTraced runs the workload twice for half the seconds each: untraced,
// then traced. The traced half supplies the per-layer metrics; the gap
// between the two halves' headline metric is the tracing overhead.
func runTraced(w workload, cfg runConfig) (*result, *tracer, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	ref, err := w.run(half)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	half.tr = tr
	res, err := w.run(half)
	if err != nil {
		return nil, nil, err
	}
	res.attempted += ref.attempted
	res.failed += ref.failed
	for _, f := range ref.failures {
		res.failures = append(res.failures, "untraced half: "+f)
	}
	base, traced := ref.e2e[w.headline], res.e2e[w.headline]
	overhead := 0.0
	if base > 0 && traced > 0 {
		if w.higherIsBetter {
			overhead = base/traced - 1
		} else {
			overhead = traced/base - 1
		}
	}
	res.layer["trace.overhead_frac"] = overhead
	res.info["trace_headline"] = map[string]any{"metric": w.headline, "untraced": base, "traced": traced}
	return res, tr, nil
}

// emit prints the details line and then the summary line.
func emit(f *os.File, workload string, seed uint64, traced bool, res *result) error {
	res.info["workload"] = workload
	res.info["seed"] = seed
	res.info["traced"] = traced
	res.info["go_version"] = runtime.Version()
	res.info["num_cpu"] = runtime.NumCPU()
	res.info["gomaxprocs"] = runtime.GOMAXPROCS(0) // query only; never set
	sort.Strings(res.failures)
	res.info["check_failures"] = res.failures
	details, err := json.Marshal(res.info)
	if err != nil {
		return err
	}
	s := summary{
		Correct:   len(res.failures) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	units, values := endToEndUnits, res.e2e
	if traced {
		units, values = perLayerUnits, res.layer
	}
	for name, unit := range units {
		s.Metrics[name] = metricOut{Value: values[name], Unit: unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", details, line)
	return err
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunAllExperimentsSmallScale executes every subcommand end to end
// at CI scale, covering the CLI plumbing and every experiment driver.
func TestRunAllExperimentsSmallScale(t *testing.T) {
	for _, exp := range []string{
		"table1", "fig2c", "fig3a", "fig3b", "fig3c", "fig9",
		"fig10a", "fig10b", "fig10c", "sec52", "compare", "combined-tss",
	} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run([]string{exp, "-scale", "small"}); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"not-an-experiment"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"fig3a", "-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSeedOverride(t *testing.T) {
	if err := run([]string{"fig3b", "-scale", "small", "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchCommandJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := runBenchCommand([]string{"-peers", "8", "-prefixes", "100", "-update-size", "10", "-scenario-victims", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("bench output is not JSON: %v\n%s", err, buf.String())
	}
	if r.Benchmark != "routeserver-throughput" || len(r.Results) != 2 {
		t.Fatalf("report: %+v", r)
	}
	for _, res := range r.Results {
		if res.UpdatesPerSec <= 0 || res.Prefixes != 8*100 {
			t.Fatalf("result %s: %+v", res.Name, res)
		}
	}
	if r.Results[0].Name != "single-lock" || r.Results[0].Shards != 1 {
		t.Fatalf("baseline result: %+v", r.Results[0])
	}
	if r.Results[1].Name != "sharded" || r.Results[1].Shards < 2 {
		t.Fatalf("sharded result: %+v", r.Results[1])
	}
	if r.SpeedupX <= 0 {
		t.Fatalf("speedup: %v", r.SpeedupX)
	}
	if err := runBenchCommand([]string{"-bogus"}, &buf); err == nil {
		t.Fatal("bad bench flag accepted")
	}
}

func TestBenchCommandFabricSection(t *testing.T) {
	var buf bytes.Buffer
	if err := runBenchCommand([]string{"-peers", "2", "-prefixes", "20", "-scenario-victims", "0",
		"-fabric-rules", "64", "-fabric-flows", "32"}, &buf); err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("bench output is not JSON: %v", err)
	}
	f := r.Fabric
	if f == nil {
		t.Fatal("fabric section missing")
	}
	if f.Rules != 64 || f.Flows != 32 {
		t.Fatalf("fabric config: %+v", f)
	}
	if f.LinearNsPerOp <= 0 || f.CompiledNsPerOp <= 0 {
		t.Fatalf("fabric timings: %+v", f)
	}
	if f.CompiledSpeedupX <= 0 || f.EgressTicksPerSec <= 0 {
		t.Fatalf("fabric derived metrics: %+v", f)
	}

	// -fabric-rules 0 skips the section.
	buf.Reset()
	if err := runBenchCommand([]string{"-peers", "2", "-prefixes", "20", "-fabric-rules", "0", "-scenario-victims", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	var r2 benchReport
	if err := json.Unmarshal(buf.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Fabric != nil {
		t.Fatal("fabric section present despite -fabric-rules 0")
	}
}

func TestBenchCommandOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := runBenchCommand([]string{"-peers", "4", "-prefixes", "40", "-scenario-victims", "0", "-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("file output not JSON: %v", err)
	}
}

func TestBenchCommandRejectsZeroFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-update-size", "0"}, {"-peers", "-1"}, {"-prefixes", "0"},
	} {
		if err := runBenchCommand(args, io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestBenchCommandSkipsRouteserverSection pins that -peers 0 skips the
// routeserver section like 0 skips every other section, and that the
// per-section archive then has no routeserver file.
func TestBenchCommandSkipsRouteserverSection(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "BENCH_")
	var buf bytes.Buffer
	if err := runBenchCommand([]string{"-peers", "0", "-fabric-rules", "64", "-fabric-flows", "32",
		"-scenario-victims", "0", "-mitctl-requests", "0", "-bgp-messages", "0", "-federation-exchanges", "0",
		"-sections", prefix}, &buf); err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("bench output is not JSON: %v", err)
	}
	if len(r.Results) != 0 || r.SpeedupX != 0 {
		t.Fatalf("routeserver section present despite -peers 0: %+v", r.Results)
	}
	if r.Fabric == nil {
		t.Fatal("fabric section missing")
	}
	if _, err := os.Stat(prefix + "routeserver.json"); !os.IsNotExist(err) {
		t.Fatalf("routeserver section archived despite -peers 0: %v", err)
	}
	if _, err := os.Stat(prefix + "fabric.json"); err != nil {
		t.Fatalf("fabric section not archived: %v", err)
	}
}

func TestBenchCommandScenarioSection(t *testing.T) {
	var buf bytes.Buffer
	err := runBenchCommand([]string{"-peers", "2", "-prefixes", "20", "-fabric-rules", "0",
		"-scenario-victims", "2", "-scenario-peers", "12", "-scenario-ticks", "20"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("bench output is not JSON: %v", err)
	}
	s := r.Scenario
	if s == nil {
		t.Fatal("scenario section missing")
	}
	if s.Victims != 2 || s.PeersPerVictim != 12 || s.Ticks != 20 {
		t.Fatalf("scenario config: %+v", s)
	}
	if s.GOMAXPROCS != 4 {
		t.Fatalf("scenario gomaxprocs: %d, want 4 (the acceptance configuration)", s.GOMAXPROCS)
	}
	if s.FlowsPerTick <= 0 || s.BaselineTicksPerSec <= 0 || s.PipelineTicksPerSec <= 0 {
		t.Fatalf("scenario timings: %+v", s)
	}
	if s.SpeedupX <= 0 || s.ObserveNsPerRecord <= 0 {
		t.Fatalf("scenario derived metrics: %+v", s)
	}

	// -scenario-victims 0 skips the section.
	buf.Reset()
	if err := runBenchCommand([]string{"-peers", "2", "-prefixes", "20", "-fabric-rules", "0",
		"-scenario-victims", "0"}, &buf); err != nil {
		t.Fatal(err)
	}
	var r2 benchReport
	if err := json.Unmarshal(buf.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Scenario != nil {
		t.Fatal("scenario section present despite -scenario-victims 0")
	}
}

func TestBenchCheckBars(t *testing.T) {
	ok := benchReport{
		SpeedupX: 1.5,
		Fabric:   &fabricBench{CompiledSpeedupX: 40},
		Scenario: &scenarioBench{SpeedupX: 5},
	}
	if err := checkBars(&ok); err != nil {
		t.Fatalf("healthy report failed check: %v", err)
	}
	for name, bad := range map[string]benchReport{
		"routeserver": {SpeedupX: 0.5},
		"fabric":      {SpeedupX: 1.5, Fabric: &fabricBench{CompiledSpeedupX: 2}},
		"scenario":    {SpeedupX: 1.5, Scenario: &scenarioBench{SpeedupX: 1}},
	} {
		if err := checkBars(&bad); err == nil {
			t.Fatalf("%s regression passed check", name)
		}
	}
	// Sections not measured are not checked.
	if err := checkBars(&benchReport{SpeedupX: 1.2}); err != nil {
		t.Fatalf("section-free report failed: %v", err)
	}
}

func TestBenchCommandProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	err := runBenchCommand([]string{"-peers", "2", "-prefixes", "20", "-fabric-rules", "0",
		"-scenario-victims", "0", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

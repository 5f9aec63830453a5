package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "decode", StartNS: 10, EndNS: 30},
		{Op: 1, ID: 3, Parent: 1, Name: "sweep", StartNS: 30, EndNS: 90},
		{Op: 2, ID: 4, Name: "request", StartNS: 100, EndNS: 150},
		{Op: 2, ID: 5, Parent: 4, Name: "decode", StartNS: 100, EndNS: 140},
	}
	got := selfTimes(spans)
	if got["request"].self != 20+10 || len(got["request"].ops) != 2 {
		t.Errorf("request self %v over %d ops, want 30ns over 2", got["request"].self, len(got["request"].ops))
	}
	if got["decode"].self != 60 || got["sweep"].self != 60 || len(got["sweep"].ops) != 1 {
		t.Errorf("decode %v, sweep %v", got["decode"].self, got["sweep"].self)
	}
	if ms := (&layerTime{self: 3 * time.Millisecond, ops: map[int64]bool{1: true, 2: true}}).meanMS(); ms != 1.5 {
		t.Errorf("meanMS = %v, want 1.5", ms)
	}
	var missing *layerTime
	if missing.meanMS() != 0 {
		t.Error("a layer no operation reached must read 0")
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, "request")
	tr.do(7, root, "decode", func() {})
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Op != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"liquid/internal/prob.pbDPInto":                  "prob",
		"liquid/internal/election.(*Plan).evaluatePoint": "election",
		"liquid/internal/scale.(*Fold).ChunkSinks":       "scale",
		"encoding/json.(*decodeState).object":            "json",
		"runtime.mallocgc":                               "",
		"net/http.(*conn).serve":                         "",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// burn keeps the CPU busy in this package so the profile has samples.
func burn(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

func TestParseProfileOfThisProcess(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	cpu, err := cpuByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The burn loop is in package main, not a bucket: nothing is invented.
	for pkg, secs := range cpu {
		if pkg != "gc" && secs > 0 {
			t.Errorf("cpu[%s] = %v for a profile that never ran that package", pkg, secs)
		}
	}
	p, err := parseProfileGz(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range p.samples {
		total += float64(s.values[p.valueIndex]) / 1e9
	}
	if total < 0.05 {
		t.Errorf("profile holds %v s of CPU for a 0.3 s busy loop", total)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the benchmark reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to perfbench:", err)
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadOrder[i])
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, want[i])
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

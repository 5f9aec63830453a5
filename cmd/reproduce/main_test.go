package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// runQuiet invokes run with progress suppressed so test output stays clean.
func runQuiet(t *testing.T, args []string, out io.Writer) error {
	t.Helper()
	return run(context.Background(), append([]string{"-quiet"}, args...), out, io.Discard)
}

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"F1", "F2", "L1", "T2", "X3", "A3"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F2", "-scale", "0.1", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== F2") {
		t.Fatal("missing experiment header")
	}
	if !strings.Contains(out, "[PASS]") {
		t.Fatal("missing check results")
	}
	if strings.Contains(out, "[FAIL]") {
		t.Fatalf("unexpected failures:\n%s", out)
	}
}

func TestRunMultipleWithCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F1, F2", "-scale", "0.1", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 { // F1 has 1 table, F2 has 2
		t.Fatalf("expected >= 3 CSV files, got %d", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "F1_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "gain") {
		t.Fatal("CSV missing header")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "ZZ"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestDeterministicOutput re-runs with the same seed: stdout carries no
// wall-clock data anymore, so the two runs must match byte for byte.
func TestDeterministicOutput(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-run", "F2", "-scale", "0.1", "-seed", "9"}
	if err := runQuiet(t, args, &a); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed should give byte-identical output")
	}
}

// TestWorkerCountInvariance is the engine's end-to-end contract at the CLI
// layer: sequential and parallel schedules render the same bytes.
func TestWorkerCountInvariance(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-run", "F2,L3,L4,V1,A5,X6,R1,R2", "-scale", "0.1", "-seed", "11", "-workers", workers}
	}
	var seq, par bytes.Buffer
	if err := runQuiet(t, args("1"), &seq); err != nil {
		t.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4
	}
	if err := runQuiet(t, args(strconv.Itoa(workers)), &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatal("worker count changed rendered output")
	}
}

// TestReproduceOutputGolden runs the full paper reproduction at seed 1 and
// requires stdout to match the committed reproduce_output.txt byte for
// byte, so any change to a reproduced table shows up as a test failure
// rather than a silent diff. A full-scale run takes seconds to minutes, so
// the test is skipped under -short.
func TestReproduceOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale reproduction; skipped with -short")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "reproduce_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runQuiet(t, []string{"-scale", "1", "-seed", "1"}, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("stdout differs from reproduce_output.txt at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stdout has %d lines, reproduce_output.txt %d", len(gl), len(wl))
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F2", "-scale", "0.1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var outs []struct {
		ID           string `json:"id"`
		Claim        string `json:"claim"`
		Replications int    `json:"replications"`
		Tables       []struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
		Checks []struct {
			Name   string `json:"Name"`
			Passed bool   `json:"Passed"`
		} `json:"checks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(outs) != 1 || outs[0].ID != "F2" {
		t.Fatalf("outs = %+v", outs)
	}
	if len(outs[0].Tables) != 2 || len(outs[0].Checks) == 0 {
		t.Fatalf("F2 shape wrong: %+v", outs[0])
	}
	if outs[0].Replications == 0 {
		t.Fatal("F2 should report its replication count")
	}
	for _, c := range outs[0].Checks {
		if !c.Passed {
			t.Fatalf("check failed in JSON: %s", c.Name)
		}
	}
}

func TestMarkdownOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F2", "-scale", "0.1", "-md"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "| --- |") {
		t.Fatalf("markdown separator missing:\n%s", out)
	}
	if !strings.Contains(out, "[PASS]") {
		t.Fatal("check results missing")
	}
}

// TestEventsFile checks the -events JSONL sink: one object per line, with
// the expected lifecycle kinds.
func TestEventsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F2", "-scale", "0.1", "-events", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // started, finished, suite_finished
		t.Fatalf("expected 3 event lines, got %d:\n%s", len(lines), data)
	}
	var kinds []string
	for _, line := range lines {
		var ev struct {
			Kind string `json:"kind"`
			Seq  int    `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := "experiment_started,experiment_finished,suite_finished"
	if strings.Join(kinds, ",") != want {
		t.Fatalf("event kinds = %v", kinds)
	}
}

// TestCancelledRunFlushesPartialOutput pre-cancels the context: run must
// still render (nothing completed, so an empty JSON array) and return a
// cancellation error rather than dying before the flush.
func TestCancelledRunFlushesPartialOutput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, []string{"-quiet", "-run", "F2,T2", "-scale", "0.1", "-json"}, &buf, io.Discard)
	if err == nil {
		t.Fatal("cancelled run should return an error")
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	var outs []any
	if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
		t.Fatalf("cancelled run did not flush valid JSON: %v\n%s", err, buf.String())
	}
}

// TestMetricsAndManifestDoNotChangeOutput is the sink half of the
// write-only contract at the CLI layer: a run streaming -metrics and
// writing a -manifest must render byte-identical tables to a bare run,
// and the side files must be well-formed.
func TestMetricsAndManifestDoNotChangeOutput(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	base := []string{"-run", "F2,L3", "-scale", "0.1", "-seed", "17", "-workers", "2"}
	var plain, tapped bytes.Buffer
	if err := runQuiet(t, base, &plain); err != nil {
		t.Fatal(err)
	}
	if err := runQuiet(t, append([]string{"-metrics", metricsPath, "-manifest", manifestPath}, base...), &tapped); err != nil {
		t.Fatal(err)
	}
	if plain.String() != tapped.String() {
		t.Fatal("attaching -metrics/-manifest changed stdout")
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 { // two experiments + suite
		t.Fatalf("expected >= 3 metrics lines, got %d", len(lines))
	}
	for _, line := range lines {
		var rec struct {
			Seq      int             `json:"seq"`
			Snapshot json.RawMessage `json:"snapshot"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad metrics line %q: %v", line, err)
		}
		if rec.Seq == 0 || len(rec.Snapshot) == 0 {
			t.Fatalf("metrics line missing seq/snapshot: %s", line)
		}
	}

	mdata, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Schema    string            `json:"schema"`
		GoVersion string            `json:"go_version"`
		GitRev    string            `json:"git_rev"`
		Seed      uint64            `json:"seed"`
		Flags     map[string]string `json:"flags"`
		Wall      float64           `json:"wall_seconds"`
	}
	if err := json.Unmarshal(mdata, &man); err != nil {
		t.Fatalf("bad manifest: %v\n%s", err, mdata)
	}
	if man.Schema != "liquid-manifest/1" {
		t.Fatalf("manifest schema = %q", man.Schema)
	}
	if man.Seed != 17 || man.Flags["scale"] != "0.1" || man.Flags["run"] != "F2,L3" {
		t.Fatalf("manifest config wrong: seed=%d flags=%v", man.Seed, man.Flags)
	}
	if man.GoVersion == "" || man.GitRev == "" || man.Wall <= 0 {
		t.Fatalf("manifest provenance incomplete: %+v", man)
	}
}

// TestTelemetryCompiledOutByteIdentity is the strongest form of the
// write-only contract: a reproduce binary with telemetry compiled out
// entirely (-tags liquidnotelemetry) renders the same stdout bytes as the
// instrumented one, across worker counts. Build-and-exec is slow, so the
// test is skipped under -short (make check runs the full suite).
func TestTelemetryCompiledOutByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries; skipped with -short")
	}
	dir := t.TempDir()
	onBin := filepath.Join(dir, "reproduce_on")
	offBin := filepath.Join(dir, "reproduce_off")
	build := func(bin string, tags ...string) {
		t.Helper()
		args := append([]string{"build", "-o", bin}, tags...)
		args = append(args, "liquid/cmd/reproduce")
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	build(onBin)
	build(offBin, "-tags", "liquidnotelemetry")

	for _, workers := range []string{"1", "4", "16"} {
		args := []string{"-quiet", "-run", "F2,L3,V1", "-scale", "0.1", "-seed", "11", "-workers", workers}
		outOn, err := exec.Command(onBin, args...).Output()
		if err != nil {
			t.Fatalf("telemetry-on run (workers=%s): %v", workers, err)
		}
		outOff, err := exec.Command(offBin, args...).Output()
		if err != nil {
			t.Fatalf("telemetry-off run (workers=%s): %v", workers, err)
		}
		if !bytes.Equal(outOn, outOff) {
			t.Fatalf("workers=%s: compiled-out telemetry changed stdout\non:\n%s\noff:\n%s", workers, outOn, outOff)
		}
	}
}

// TestFailFastFlag wires -failfast through to the engine: on a healthy
// subset everything still runs and renders.
func TestFailFastFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuiet(t, []string{"-run", "F2,A5", "-scale", "0.1", "-failfast", "-workers", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== F2") || !strings.Contains(out, "=== A5") {
		t.Fatalf("both healthy experiments should render:\n%s", out)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json steady reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each workload -runs times, alternating the order of the
// workloads from round to round, each run a child process on its own seed,
// and prints per workload and end-to-end metric the median, the quartiles
// and the quartile spread over the median next to the metric's bound.
func steady(ctx context.Context, e *env, args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	var (
		runs    = fs.Int("runs", 10, "runs per workload")
		seconds = fs.Float64("seconds", 10, "measured time per run")
		seed0   = fs.Uint64("seed0", 1, "seed of the first round; round i uses seed0+i")
		only    = fs.String("workloads", strings.Join(workloadOrder, ","), "comma-separated workloads")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bounds := make(map[string]float64)
	if data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json")); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	names := strings.Split(*only, ",")
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> values
	for i := 0; i < *runs; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		seed := *seed0 + uint64(i)
		for _, w := range order {
			cmd := command(self, "-root", e.root, "-bin", e.bin, "-out", e.out,
				"--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			line := fmt.Sprintf("steady: %-14s seed %-3d correct=%v attempted=%d failed=%d", w, seed, res.Correct, res.Attempted, res.Failed)
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				values[w][d.name] = append(values[w][d.name], v)
				line += fmt.Sprintf(" %s=%.4g", d.name, v)
			}
			fmt.Fprintln(os.Stderr, line)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tbound\tspread/bound\t")
	for _, w := range names {
		for _, d := range endToEnd {
			xs := values[w][d.name]
			q1, q2, q3 := quartiles(xs)
			spread := quartileSpread(xs)
			b := bounds[d.name]
			rel := "-"
			if b > 0 {
				rel = fmt.Sprintf("%.2f", spread/b)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%s\t\n", w, d.name, q2, q1, q3, spread, b, rel)
		}
	}
	return tw.Flush()
}

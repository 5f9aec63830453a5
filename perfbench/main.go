// Command perfbench is the repository's benchmark. It builds nothing
// itself: perfbench/run.sh builds cmd/reproduce, cmd/liquidd and this
// command from the checkout, then runs one workload:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads are reproduce (the full cmd/reproduce pass), serve-evaluate
// and serve-whatif (closed-loop load against a liquidd child) and
// scale-certify (certified 10^6-voter queries in process). Each run makes its
// inputs from --seed, measures for about --seconds, checks every answer it
// measured against computations made apart from the program, and prints one
// JSON object as its last line of standard output: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See perfbench/README.md.
//
//	bash perfbench/run.sh steady -runs 10 -seconds 10
//
// runs every workload -runs times, alternating their order, and prints each
// end-to-end metric's median, quartiles and quartile spread next to the
// bound BENCHMARK.json sets for it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one run's configuration.
type env struct {
	root, bin, out string // checkout root, built binaries, scratch output
	seed           uint64
	seconds        time.Duration
	trace          bool
}

// report collects a run's operation counts, answer checks and metrics.
type report struct {
	attempted, failed int64
	wrong             []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

// op counts one timed operation; ok is false when it failed (an error
// status, or no answer).
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// check records one answer check and returns ok. A failed check marks the
// run incorrect and counts one failed operation.
func (r *report) check(ok bool, format string, args ...any) bool {
	if ok {
		return true
	}
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if len(r.wrong) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.wrong = append(r.wrong, msg)
	return false
}

type workloadFunc func(ctx context.Context, e *env, r *report) error

var workloads = map[string]workloadFunc{
	"reproduce":      runReproduce,
	"serve-evaluate": runServeEvaluate,
	"serve-whatif":   runServeWhatIf,
	"scale-certify":  runScaleCertify,
}

// workloadOrder is the order steady runs alternate through.
var workloadOrder = []string{"reproduce", "serve-evaluate", "serve-whatif", "scale-certify"}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		root     = fs.String("root", ".", "checkout root")
		bin      = fs.String("bin", "", "directory holding the built reproduce and liquidd")
		out      = fs.String("out", "", "directory for spans, profiles and logs")
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
		seed     = fs.Uint64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measured time per run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -out are required (run through perfbench/run.sh)")
		return 2
	}
	e := &env{root: *root, bin: *bin, out: *out, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if rest := fs.Args(); len(rest) > 0 {
		if rest[0] != "steady" {
			fmt.Fprintf(os.Stderr, "perfbench: unknown command %q\n", rest[0])
			return 2
		}
		if err := steady(ctx, e, rest[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if e.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(e.out, "runs"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := newReport()
	if err := fn(ctx, e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := r.result(e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// resultMetric is one metric of the result line.
type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// result renders the run's last output line. An untraced run must have
// measured every end-to-end metric; a traced run reports every per-layer
// metric, 0 for layers the workload does not reach.
func (r *report) result(traced bool) (string, error) {
	if r.attempted < 1 {
		return "", fmt.Errorf("no operations attempted")
	}
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]resultMetric)}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s = %v", d.name, v)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

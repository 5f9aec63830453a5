package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// flakyExperiments fail a paper-shape check at some seeds although they
// pass at the committed seed: L2's "dependency widens the spread" failed at
// seed 1011, L3's "flip bound decays with n" at 31, 702, 710 and 1040, X12's
// gossip-round ordering at 40, 706, 1039, 1060, 1067 and 1079 (about 200
// seeds tried). The workload leaves them out, so that whether a run fails
// does not depend on its seed.
var flakyExperiments = []string{"L2", "L3", "X12"}

// minReproduceChecks is the number of paper-shape checks the workload's
// experiments make today: reproduce_output.txt's 158 less the flaky
// experiments' 8. A pass with fewer ran fewer experiments than the
// workload names.
const minReproduceChecks = 150

// setupLaunches is how many times a run measures a set-up; setup_s is the
// median.
const setupLaunches = 9

// pass is one finished cmd/reproduce run.
type pass struct {
	stdout      []byte
	wall, cpu   time.Duration
	peakMB      float64
	experiments int
	failedExps  int
	checks      int
}

// runReproduce times whole `reproduce -scale 1 -workers 1` passes over
// every experiment but the flaky ones, at the run's seed. An operation is
// one experiment. setup_s is a bare process start (`reproduce -list`, whose
// output names the experiments); p50_ms and p99_ms are the median and
// slowest pass, peak_rss_mb the median of the passes' peaks. The traced run
// adds a profiled pass and a two-worker pass that must print the same bytes.
func runReproduce(ctx context.Context, e *env, r *report) error {
	bin := filepath.Join(e.bin, "reproduce")
	var setups []float64
	var list bytes.Buffer
	for i := 0; i < setupLaunches; i++ {
		list.Reset()
		t0 := time.Now()
		cmd := command(bin, "-list")
		cmd.Stdout = &list
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("reproduce -list: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	run := experimentList(list.Bytes())

	// Whole passes: keep going while another pass of the last one's length
	// still ends within the measured time, and make at least minPasses, so
	// that a pass of about the run's length is still measured twice. The
	// traced run needs one untraced pass, its reference.
	minPasses := 2
	if e.trace {
		minPasses = 1
	}
	var passes []*pass
	var elapsed time.Duration
	for {
		p, err := reproducePass(ctx, bin, passArgs(run, e.seed, 1), nil)
		if err != nil {
			return err
		}
		checkPass(r, p)
		if len(passes) > 0 {
			r.check(bytes.Equal(p.stdout, passes[0].stdout), "reproduce: pass %d printed different tables at the same seed", len(passes)+1)
		}
		passes = append(passes, p)
		elapsed += p.wall
		if len(passes) >= minPasses && elapsed+p.wall > e.seconds {
			break
		}
	}

	checkFigure1(r, passes[0].stdout)
	if e.trace {
		return traceReproduce(ctx, e, r, bin, run, passes[0])
	}
	var walls, peaks []float64
	var cpu time.Duration
	exps := 0
	for _, p := range passes {
		walls = append(walls, float64(p.wall)/float64(time.Millisecond))
		peaks = append(peaks, p.peakMB)
		cpu += p.cpu
		exps += p.experiments
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["ops_per_s"] = float64(exps) / elapsed.Seconds()
	r.metrics["p50_ms"] = median(walls)
	r.metrics["p99_ms"], _ = tailPercentile(walls)
	r.metrics["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(exps)
	r.metrics["peak_rss_mb"] = median(peaks)
	return nil
}

// checkPass counts a pass's experiments as operations and checks that all
// of its paper-shape checks passed.
func checkPass(r *report, p *pass) {
	for i := 0; i < p.experiments; i++ {
		r.op(i >= p.failedExps)
	}
	r.check(p.failedExps == 0, "reproduce: %d experiments failed a paper-shape check", p.failedExps)
	r.check(p.checks >= minReproduceChecks, "reproduce: %d checks passed, want at least %d", p.checks, minReproduceChecks)
}

// checkFigure1 recomputes Figure 1 with the oracles. On the star with a 2/3
// centre and 3/5 leaves, greedy delegation hands the centre all n votes, so
// P^M is the weighted-majority probability of that one sink and P^D the
// Poisson-binomial majority of the centre and n-1 leaves. The check line
// that prints the gains in full precision must match P^M - P^D to 1e-12 for
// every n of the table.
func checkFigure1(r *report, stdout []byte) {
	_, sec, _ := bytes.Cut(stdout, []byte("=== F1:"))
	sec, _, _ = bytes.Cut(sec, []byte("\n=== "))
	var ns []int
	var gains []float64
	for _, line := range strings.Split(string(sec), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			if n, err := strconv.Atoi(f[0]); err == nil {
				ns = append(ns, n)
			}
		}
		if _, list, ok := strings.Cut(line, "gains = ["); ok {
			for _, g := range strings.Fields(strings.TrimSuffix(list, "]")) {
				if v, err := strconv.ParseFloat(g, 64); err == nil {
					gains = append(gains, v)
				}
			}
		}
	}
	if !r.check(len(ns) > 0 && len(ns) == len(gains), "reproduce: Figure 1 lists %d sizes and %d gains", len(ns), len(gains)) {
		return
	}
	for i, n := range ns {
		ps := make([]float64, n)
		ps[0] = 2.0 / 3
		for j := 1; j < n; j++ {
			ps[j] = 3.0 / 5
		}
		want := naiveMajorityWM([]weighted{{w: n, p: 2.0 / 3}}) - naiveMajorityPB(ps)
		r.check(math.Abs(gains[i]-want) <= 1e-12, "reproduce: Figure 1 at n=%d: gain %v, naive DPs give %v", n, gains[i], want)
	}
}

// experimentList reads the experiment IDs from `reproduce -list` output (an
// ID and title per line, the claim indented below) and returns them, less
// the flaky ones, as a -run argument.
func experimentList(list []byte) string {
	var ids []string
	for _, line := range strings.Split(string(list), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, " ") && !slices.Contains(flakyExperiments, f[0]) {
			ids = append(ids, f[0])
		}
	}
	return strings.Join(ids, ",")
}

// passArgs are the arguments of a full-scale pass over the experiments in
// run.
func passArgs(run string, seed uint64, workers int) []string {
	return []string{"-run", run, "-scale", "1", "-workers", strconv.Itoa(workers), "-seed", strconv.FormatUint(seed, 10), "-quiet"}
}

// reproducePass runs one pass and parses its tables: experiments start with
// "=== <id>:" and every check prints [PASS] or [FAIL]. onStderr, when not
// nil, sees every line the pass writes to standard error.
func reproducePass(ctx context.Context, bin string, args []string, onStderr func(string)) (*pass, error) {
	cmd := command(bin, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting reproduce: %w", err)
	}
	var tail []string
	scanLines(stderr, func(line string) {
		if onStderr != nil {
			onStderr(line)
		}
		if len(tail) < 20 {
			tail = append(tail, line)
		}
	})
	werr := cmd.Wait()
	p := &pass{stdout: stdout.Bytes(), wall: time.Since(t0)}
	p.cpu, p.peakMB = exitedUsage(cmd.ProcessState)
	failedHere := false
	sc := bufio.NewScanner(bytes.NewReader(p.stdout))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "=== "):
			p.experiments++
			failedHere = false
		case strings.Contains(line, "[PASS]"):
			p.checks++
		case strings.Contains(line, "[FAIL]"):
			if !failedHere {
				p.failedExps++
				failedHere = true
			}
		}
	}
	if werr != nil && p.failedExps == 0 {
		// A nonzero exit without a failed check is a crash, not an answer.
		return nil, fmt.Errorf("reproduce %v: %w: %s", args, werr, strings.Join(tail, "\n"))
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return p, nil
}

// traceReproduce makes the traced passes: one with the engine's event
// stream, the telemetry manifest and a CPU profile from the -pprof
// listener, and one at two workers whose tables must equal the one-worker
// pass byte for byte.
func traceReproduce(ctx context.Context, e *env, r *report, bin, run string, base *pass) error {
	dir := filepath.Join(e.out, "runs")
	tag := fmt.Sprintf("reproduce-seed%d", e.seed)
	events := filepath.Join(dir, tag+".events.jsonl")
	manifest := filepath.Join(dir, tag+".manifest.json")

	// The profile must end before the pass does. It starts with the pass and
	// covers 70% of the untraced pass's length; a pass that ends sooner all
	// the same (the host's speed varies) is repeated with half the window.
	args := append(passArgs(run, e.seed, 1), "-events", events, "-manifest", manifest, "-pprof", "127.0.0.1:0")
	secs := max(1, int(0.7*base.wall.Seconds()))
	var (
		traced *pass
		prof   []byte
		mem    memstats
	)
	for {
		_ = os.Remove(events) // -events appends
		var profErr error
		var err error
		traced, prof, mem, profErr, err = profiledPass(ctx, bin, args, secs)
		if err != nil {
			return err
		}
		if profErr == nil {
			break
		}
		if secs == 1 {
			return fmt.Errorf("reproduce profile: %w", profErr)
		}
		secs = max(1, secs/2)
	}
	checkPass(r, traced)
	r.check(bytes.Equal(traced.stdout, base.stdout), "reproduce: tables changed with -events/-manifest/-pprof on")

	two, err := reproducePass(ctx, bin, passArgs(run, e.seed, 2), nil)
	if err != nil {
		return err
	}
	checkPass(r, two)
	r.check(bytes.Equal(two.stdout, base.stdout), "reproduce: tables at -workers 2 differ from -workers 1")

	cpu, err := cpuByPackage(prof)
	if err != nil {
		return err
	}
	for _, pkg := range cpuPackages {
		r.metrics["cpu."+pkg+"_s"] = cpu[pkg]
	}

	times, err := experimentTimes(events)
	if err != nil {
		return err
	}
	other := 0.0
	for id, s := range times {
		if slices.Contains(timedExperiments, id) {
			r.metrics["experiment."+id+"_s"] = s
		} else {
			other += s
		}
	}
	r.metrics["experiment.other_s"] = other

	counters, err := manifestCounters(manifest)
	if err != nil {
		return err
	}
	exps := float64(traced.experiments)
	r.metrics["election.resolution_cache_hit_ratio"] = ratio(counters["election/resolution_cache_hits"], counters["election/resolution_cache_misses"])
	r.metrics["election.direct_cache_hit_ratio"] = ratio(counters["election/direct_cache_hits"], counters["election/direct_cache_misses"])
	r.metrics["election.delta_patches"] = float64(counters["prob/delta_patches"]) / exps
	r.metrics["election.delta_rebuilds"] = float64(counters["prob/delta_rebuilds"]) / exps
	r.metrics["go.gc_cycles_per_op"] = float64(mem.NumGC) / exps
	r.metrics["go.alloc_kb_per_op"] = float64(mem.TotalAlloc) / 1024 / exps
	r.metrics["trace.overhead_pct"] = 100 * (traced.wall.Seconds()/base.wall.Seconds() - 1)
	return nil
}

// profiledPass runs a pass with -pprof in args, fetching a CPU profile of
// its first secs seconds and polling its memstats every 100 ms; the last
// reading before the process exits stands for the whole pass. profErr is
// the profile's failure, err the pass's.
func profiledPass(ctx context.Context, bin string, args []string, secs int) (p *pass, prof []byte, mem memstats, profErr, err error) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	onLine := func(line string) {
		const marker = "pprof: serving expvar and net/http/pprof on http://"
		i := strings.Index(line, marker)
		if i < 0 {
			return
		}
		addr := strings.TrimSuffix(line[i+len(marker):], "/debug/")
		wg.Add(2)
		go func() {
			defer wg.Done()
			b, err := fetch(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, secs))
			mu.Lock()
			prof, profErr = b, err
			mu.Unlock()
		}()
		go func() {
			defer wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if m, err := fetchMemstats("http://" + addr); err == nil {
					mu.Lock()
					mem = m
					mu.Unlock()
				}
			}
		}()
	}
	p, err = reproducePass(ctx, bin, args, onLine)
	close(stop)
	wg.Wait()
	if err == nil && prof == nil && profErr == nil {
		profErr = errors.New("the pass printed no -pprof address")
	}
	return p, prof, mem, profErr, err
}

// experimentTimes reads each experiment's elapsed seconds from an engine
// event stream.
func experimentTimes(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var ev struct {
			Kind    string  `json:"kind"`
			ID      string  `json:"id"`
			Elapsed float64 `json:"elapsed_seconds"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Kind == "experiment_finished" {
			out[ev.ID] = ev.Elapsed
		}
	}
	return out, nil
}

// manifestCounters reads the telemetry counters of a liquid-manifest/1 file.
func manifestCounters(path string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man struct {
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value uint64 `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]uint64)
	for _, c := range man.Metrics.Counters {
		out[c.Name] = c.Value
	}
	return out, nil
}

// memstats is the part of expvar's runtime.MemStats the traced runs read.
type memstats struct {
	NumGC      uint64
	TotalAlloc uint64
}

// fetchMemstats reads a Go process's memstats from its /debug/vars.
func fetchMemstats(base string) (memstats, error) {
	b, err := fetch(base + "/debug/vars")
	if err != nil {
		return memstats{}, err
	}
	var v struct {
		Memstats memstats `json:"memstats"`
	}
	err = json.Unmarshal(b, &v)
	return v.Memstats, err
}

// fetch GETs a URL and returns its body, failing on any status but 200.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// ratio is hits / (hits + misses), 0 when there was no traffic.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

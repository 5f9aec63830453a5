package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"liquid/internal/server"
)

// deadlineMS is every served request's deadline: generous enough that the
// daemon always affords the exact engine, so every answer is exact.
const deadlineMS = 60000

// request is one pre-built request of a serving mix.
type request struct {
	kind string // evaluate, fault, delta, plain, budgeted
	path string
	body []byte
}

// daemon is a running liquidd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	pprof   string // http://host:port of the -pprof listener, or ""
	started time.Time
	done    chan struct{} // closed when stderr reaches EOF
	client  *http.Client
}

// startDaemon launches liquidd on an ephemeral port and waits until it
// reports its address.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := command(filepath.Join(bin, "liquidd"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting liquidd: %w", err)
	}
	wantPprof := strings.Contains(strings.Join(extra, " "), "-pprof")
	ready := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(d.done)
		scanLines(stderr, func(line string) {
			if addr, ok := strings.CutPrefix(line, "pprof: serving on http://"); ok {
				d.pprof = "http://" + strings.TrimSuffix(addr, "/debug/")
			}
			if addr, ok := strings.CutPrefix(line, "liquidd: serving on http://"); ok {
				d.base = "http://" + addr
			}
			if d.base != "" && (d.pprof != "" || !wantPprof) {
				once.Do(func() { close(ready) })
			}
		})
	}()
	select {
	case <-ready:
	case <-d.done:
		_ = cmd.Wait()
		return nil, errors.New("liquidd exited before serving")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("liquidd did not report its address within 30s")
	}
	// One keep-alive connection: the closed loop has one client. Two
	// clients, on a shared two-core host, moved ops_per_s by ±4% and p99_ms
	// by ±5% between runs of one seed; one client by ±2% and ±2.5%.
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("liquidd did not drain within 30s")
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// post sends one request and returns its status and body.
func (d *daemon) post(rq *request) (int, []byte, error) {
	resp, err := d.client.Post(d.base+rq.path, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stats reads /statsz.
func (d *daemon) stats() (server.Stats, error) {
	var st server.Stats
	b, err := fetch(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(b, &st)
	return st, err
}

// setupDaemon launches liquidd and sends it the cold warm-up set, one
// request at a time. It returns the daemon and the set-up time: from launch
// until the last warm-up answer.
func setupDaemon(e *env, warm []*request, r *report, extra ...string) (*daemon, time.Duration, error) {
	d, err := startDaemon(e.bin, extra...)
	if err != nil {
		return nil, 0, err
	}
	for _, rq := range warm {
		status, body, err := d.post(rq)
		if err != nil {
			d.kill()
			return nil, 0, fmt.Errorf("warm-up %s: %w", rq.kind, err)
		}
		r.check(status == http.StatusOK, "warm-up %s: status %d: %s", rq.kind, status, body)
	}
	return d, time.Since(d.started), nil
}

// setupRepeated measures set-up setupLaunches times, stopping each daemon
// but the last, which the run keeps. It returns that daemon and the median
// set-up time.
func setupRepeated(e *env, warm []*request, r *report, extra ...string) (*daemon, float64, error) {
	var times []float64
	for {
		d, t, err := setupDaemon(e, warm, r, extra...)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t.Seconds())
		if len(times) == setupLaunches {
			return d, median(times), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// loopResult is one closed-loop phase: per request, the index into the mix,
// the status and the client-observed latency.
type loopResult struct {
	idx     []int
	status  []int
	latency []time.Duration
	elapsed time.Duration
	cpu     time.Duration // the daemon's CPU over the phase
	// answers holds the first 200 body seen for each mix index; unstable
	// counts later answers to the same body that did not repeat it byte for
	// byte, transport the requests that got no HTTP answer at all.
	answers             [][]byte
	unstable, transport int
}

// closedLoop drives the daemon with one client for dur: it sends the next
// request of the mix, round-robin, as soon as the previous one is answered.
// The request in flight at dur finishes and counts.
func closedLoop(ctx context.Context, d *daemon, mix []*request, dur time.Duration) (*loopResult, error) {
	res := &loopResult{answers: make([][]byte, len(mix))}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k := 0; time.Since(start) < dur && ctx.Err() == nil; k++ {
		i := k % len(mix)
		t0 := time.Now()
		status, body, err := d.post(mix[i])
		res.latency = append(res.latency, time.Since(t0))
		if err != nil {
			res.transport++
			status = 0
		}
		res.idx = append(res.idx, i)
		res.status = append(res.status, status)
		switch {
		case status != http.StatusOK:
		case res.answers[i] == nil:
			res.answers[i] = body
		case !bytes.Equal(res.answers[i], body):
			res.unstable++
		}
	}
	res.elapsed = time.Since(start)
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.cpu = cpu1 - cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// completed counts the phase's 200 answers.
func (l *loopResult) completed() int {
	n := 0
	for _, s := range l.status {
		if s == http.StatusOK {
			n++
		}
	}
	return n
}

// countOps records the phase's requests as operations, answers that
// changed between repeats of one body as wrong.
func (l *loopResult) countOps(r *report) {
	for _, s := range l.status {
		r.op(s == http.StatusOK)
	}
	r.check(l.unstable == 0, "%d answers differed from an earlier answer to the same request", l.unstable)
	r.check(l.transport == 0, "%d requests failed in transport", l.transport)
}

// endToEnd sets the serving end-to-end metrics from the timed phase.
func (l *loopResult) endToEnd(r *report, d *daemon, mix []*request, setup float64) error {
	peak, err := procPeakRSS(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	done := float64(l.completed())
	if done == 0 {
		return errors.New("no request completed")
	}
	lat := millis(l.latency)
	r.metrics["setup_s"] = setup
	r.metrics["ops_per_s"] = done / l.elapsed.Seconds()
	r.metrics["p50_ms"] = percentile(lat, 50)
	r.metrics["p99_ms"], _ = tailPercentile(lat)
	r.metrics["cpu_ms_per_op"] = float64(l.cpu) / float64(time.Millisecond) / done
	r.metrics["peak_rss_mb"] = peak

	byKind := make(map[string][]float64)
	for k, i := range l.idx {
		byKind[mix[i].kind] = append(byKind[mix[i].kind], lat[k])
	}
	var parts []string
	for _, kind := range sortedKeys(byKind) {
		xs := byKind[kind]
		parts = append(parts, fmt.Sprintf("%s n=%d p50 %.2f p90 %.2f p99 %.2f", kind, len(xs), percentile(xs, 50), percentile(xs, 90), percentile(xs, 99)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: latency ms by kind: %s\n", strings.Join(parts, "; "))
	return nil
}

// checkAccounting checks the daemon's accounting identity
// received = malformed + shed + completed + failed + expired, and that the
// requests it received and completed between two readings are the ones the
// clients sent and saw answered.
func checkAccounting(r *report, before, after server.Stats, sent, ok int) {
	sum := after.Malformed + after.Shed + after.Completed + after.Failed + after.Expired
	r.check(after.Received == sum, "statsz: received %d != malformed+shed+completed+failed+expired %d", after.Received, sum)
	r.check(after.Received-before.Received == uint64(sent), "statsz: daemon received %d, clients sent %d", after.Received-before.Received, sent)
	r.check(after.Completed-before.Completed == uint64(ok), "statsz: daemon completed %d, clients saw %d answers", after.Completed-before.Completed, ok)
}

// timedPhase runs the closed loop between two /statsz readings, counts its
// operations and checks the accounting.
func timedPhase(ctx context.Context, r *report, d *daemon, mix []*request, dur time.Duration) (*loopResult, error) {
	before, err := d.stats()
	if err != nil {
		return nil, err
	}
	l, err := closedLoop(ctx, d, mix, dur)
	if err != nil {
		return nil, err
	}
	after, err := d.stats()
	if err != nil {
		return nil, err
	}
	l.countOps(r)
	checkAccounting(r, before, after, len(l.status), l.completed())
	return l, nil
}

// serveTrace is what a traced serving run measures on the daemon itself:
// a CPU profile, memstats and /statsz around an untraced and a profiled
// closed loop, and the daemon's telemetry counters from its manifest.
type serveTrace struct {
	base, profiled *loopResult
	cpu            map[string]float64
	gcPerOp        float64
	allocKBPerOp   float64
	counters       map[string]uint64
	lifetimeOps    int // warm-up plus both loops: the span of the counters
	shed, expired  uint64
}

// traceDaemon runs the daemon side of a traced serving run: set-up with
// -pprof and -manifest, an untraced loop (the overhead baseline, with
// memstats around it), then a loop with a CPU profile running, and a
// drain that writes the manifest.
func traceDaemon(ctx context.Context, e *env, r *report, name string, warm, mix []*request) (*serveTrace, error) {
	manifest := filepath.Join(e.out, "runs", fmt.Sprintf("%s-seed%d.manifest.json", name, e.seed))
	d, _, err := setupDaemon(e, warm, r, "-pprof", "127.0.0.1:0", "-manifest", manifest)
	if err != nil {
		return nil, err
	}
	st := &serveTrace{}
	fail := func(err error) (*serveTrace, error) { d.kill(); return nil, err }

	m0, err := fetchMemstats(d.pprof)
	if err != nil {
		return fail(err)
	}
	if st.base, err = timedPhase(ctx, r, d, mix, e.seconds); err != nil {
		return fail(err)
	}
	m1, err := fetchMemstats(d.pprof)
	if err != nil {
		return fail(err)
	}
	done := float64(st.base.completed())
	st.gcPerOp = float64(m1.NumGC-m0.NumGC) / done
	st.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / done

	secs := max(1, int(e.seconds.Seconds()))
	profCh := make(chan []byte, 1)
	errCh := make(chan error, 1)
	go func() {
		b, err := fetch(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, secs))
		profCh <- b
		errCh <- err
	}()
	st.profiled, err = timedPhase(ctx, r, d, mix, time.Duration(secs)*time.Second)
	prof, perr := <-profCh, <-errCh
	if err != nil {
		return fail(err)
	}
	if perr != nil {
		return fail(fmt.Errorf("profile: %w", perr))
	}
	if st.cpu, err = cpuByPackage(prof); err != nil {
		return fail(err)
	}
	final, err := d.stats()
	if err != nil {
		return fail(err)
	}
	st.shed, st.expired = final.Shed, final.Expired
	st.lifetimeOps = len(warm) + len(st.base.status) + len(st.profiled.status)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if st.counters, err = manifestCounters(manifest); err != nil {
		return nil, err
	}
	return st, nil
}

// layerMetrics sets the per-layer metrics the daemon side measured.
func (st *serveTrace) layerMetrics(r *report) {
	for _, pkg := range cpuPackages {
		r.metrics["cpu."+pkg+"_s"] = st.cpu[pkg]
	}
	c := st.counters
	ops := float64(st.lifetimeOps)
	r.metrics["server.scenario_hit_ratio"] = ratio(c["server/scenario_cache_hits"], c["server/scenario_cache_misses"])
	r.metrics["server.shed"] = float64(st.shed)
	r.metrics["server.expired"] = float64(st.expired)
	r.metrics["election.resolution_cache_hit_ratio"] = ratio(c["election/resolution_cache_hits"], c["election/resolution_cache_misses"])
	r.metrics["election.direct_cache_hit_ratio"] = ratio(c["election/direct_cache_hits"], c["election/direct_cache_misses"])
	r.metrics["election.delta_patches"] = float64(c["prob/delta_patches"]) / ops
	r.metrics["election.delta_rebuilds"] = float64(c["prob/delta_rebuilds"]) / ops
	r.metrics["go.gc_cycles_per_op"] = st.gcPerOp
	r.metrics["go.alloc_kb_per_op"] = st.allocKBPerOp
	r.metrics["trace.overhead_pct"] = 100 * (st.base.opsPerSec()/st.profiled.opsPerSec() - 1)
}

func (l *loopResult) opsPerSec() float64 { return float64(l.completed()) / l.elapsed.Seconds() }

// printKindShares writes to stderr each request kind's share of the
// replayed handler time, the make-up of the mix by cost.
func printKindShares(workload string, mix []*request, chain []time.Duration) {
	byKind := make(map[string]time.Duration)
	count := make(map[string]int)
	var total time.Duration
	for i, rq := range mix {
		byKind[rq.kind] += chain[i]
		count[rq.kind]++
		total += chain[i]
	}
	var parts []string
	for _, k := range sortedKeys(byKind) {
		parts = append(parts, fmt.Sprintf("%s %d bodies %.1f%%", k, count[k], 100*float64(byKind[k])/float64(total)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s replay time by kind: %s\n", workload, strings.Join(parts, ", "))
}

// overheadMS is the client latency the replayed stages do not explain:
// admission, shard queue wait and HTTP. chain[i] is the replayed handler
// chain's time for mix index i.
func (l *loopResult) overheadMS(chain []time.Duration) float64 {
	var lat, replay time.Duration
	for k, i := range l.idx {
		lat += l.latency[k]
		replay += chain[i]
	}
	return float64(lat-replay) / float64(time.Millisecond) / float64(len(l.idx))
}

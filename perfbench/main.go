// Command perfbench is the repository's benchmark: it drives one workload
// through the simulator's public packages for a fixed time, checks every
// output, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from a timed run of the same workload). See README.md.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fleet-week --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tapas-sim/tapas/internal/sim"
)

// workload is one benchmark workload. Units run concurrently when
// clients() > 1, so check must then be safe for concurrent use.
type workload interface {
	// clients is the number of closed-loop callers (at most nproc).
	clients() int
	// setup does everything before the first unit and returns how
	// long one load of the workload's recorded trace inputs took.
	setup() (traceLoad time.Duration, err error)
	// unit runs unit i; tr and cl are nil when untraced, otherwise the
	// phase's tracer and the calling client's span log.
	unit(i int, tr *tracer, cl *spanLog) (any, error)
	// check verifies a unit's output (untimed), or queues it for verify.
	check(i int, out any) error
	// verify runs the queued checks after the timed phase and returns how
	// many failed.
	verify() (failed int, err error)
	// results are the simulation results the model counters are read from.
	results() []*sim.Result
	close()
}

var workloadNames = []string{"fleet-fill", "fleet-week", "replay-powerloop", "daemon-whatif"}

func newWorkload(name, root string, seed uint64) (workload, error) {
	switch name {
	case "fleet-fill":
		return newFleetFill(seed), nil
	case "fleet-week":
		return newFleetWeek(seed), nil
	case "replay-powerloop":
		return newReplayPowerLoop(root), nil
	case "daemon-whatif":
		return newDaemonWhatIf(root, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// setupRepeats is how many fresh setup-only processes a run starts:
// setup_s is their median setup time, setup_rss_mb their largest peak
// resident set. Setup's peak varies with where the concurrent GC lands among
// profile fitting's allocations, so the largest of several is the steady
// figure (and the one a user must provision).
const setupRepeats = 7

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed       = fs.Uint64("seed", 1, "input seed")
		seconds    = fs.Float64("seconds", 10, "measured seconds (split evenly between untraced and traced with -trace 1)")
		traced     = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
		setupChild = fs.Bool("setup-child", false, "internal: set up, print \"ready\" and exit (measures setup_s)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host := hostContext()
	w, err := newWorkload(*name, root, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *setupChild {
		defer w.close()
		if _, err := w.setup(); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "ready %g\n", peakRSSMB())
		return 0
	}
	spans := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-%d.json", *name, *seed))
	rep, err := bench(w, benchConfig{
		name: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, spans: spans,
	}, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	host.LoadAvgEnd = loadAvg()
	info := map[string]any{"workload": *name, "seed": *seed, "host": host, "model": modelCounters(w.results()), "units": rep.units}
	for k, v := range rep.info {
		info[k] = v
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	infoLine, _ := json.Marshal(info)
	fmt.Fprintln(stdout, string(infoLine))
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Fprintln(stdout, string(last))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type benchConfig struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	spans   string
}

type report struct {
	attempted, failed, units int
	metrics                  map[string]metric
	info                     map[string]any
}

// bench measures w: untraced, the end-to-end metrics over the whole time;
// traced, an untraced half then a traced half, reporting per-layer metrics.
func bench(w workload, cfg benchConfig, stderr io.Writer) (*report, error) {
	var setupS, setupRSS []float64
	if !cfg.traced {
		for i := 0; i < setupRepeats; i++ {
			d, rss, err := childSetup(cfg)
			if err != nil {
				return nil, fmt.Errorf("setup child: %w", err)
			}
			setupS = append(setupS, d.Seconds())
			setupRSS = append(setupRSS, rss)
		}
	}
	defer w.close()
	traceLoad, err := w.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	// Setup's peak is measured in the children; return its garbage so the
	// timed phase's resident set is the workload's own.
	debug.FreeOSMemory()
	// One untimed unit per client first: a process's first units grow the
	// heap and fault in pages, and were up to 30% slower than the rest.
	warm := measure(w, 0, 0, nil, stderr)
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.traced {
		ph := measure(w, warm.attempted, total, nil, stderr)
		rep, err := finish(w, warm, ph)
		if err != nil {
			return nil, err
		}
		rep.metrics = endToEnd(ph, median(setupS), slices.Max(setupRSS))
		rep.info = map[string]any{"setup_s_samples": setupS, "setup_rss_mb_samples": setupRSS}
		if p90, ok := tailPercentile(ph.durs, 90); ok {
			rep.info["unit_p90_ms"] = p90
		}
		return rep, nil
	}
	plain := measure(w, warm.attempted, total/2, nil, stderr)
	tr := newTracer()
	timed := measure(w, warm.attempted+plain.attempted, total/2, tr, stderr)
	rep, err := finish(w, warm, plain, timed)
	if err != nil {
		return nil, err
	}
	rep.metrics = perLayer(tr.reduce(), plain, timed, traceLoad)
	if err := tr.writeSpans(cfg.spans, timed.firstEnd); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.info = map[string]any{"spans": cfg.spans}
	return rep, nil
}

// finish runs the deferred checks and totals the phases' operation counts.
func finish(w workload, phases ...*phase) (*report, error) {
	failed, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep := &report{failed: failed}
	for _, ph := range phases {
		rep.attempted += ph.attempted
		rep.failed += ph.failed
		rep.units += len(ph.durs)
	}
	return rep, nil
}

// childSetup starts this binary as a setup-only process and returns the
// time from its start until it reports ready (process start to the first
// unit, paid fresh: no memoized profiles, no warm daemon) and the peak
// resident set it reports then.
func childSetup(cfg benchConfig) (time.Duration, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, "-workload", cfg.name, "-seed", fmt.Sprint(cfg.seed), "-setup-child")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	ready := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, 0, err
	}
	var rss float64
	if _, err := fmt.Sscanf(line, "ready %g\n", &rss); err != nil {
		return 0, 0, fmt.Errorf("setup child reported %q", line)
	}
	return ready, rss, nil
}

// phase is one measured stretch of closed-loop units.
type phase struct {
	durs              []float64 // ms of every unit that passed
	attempted, failed int
	elapsed           time.Duration
	mem0, mem1        runtime.MemStats
	peakRSS           float64 // MB, sampled
	firstEnd          int64   // traced: when the first unit ended, ns since the tracer's epoch
}

// measure runs units first, first+1, ... from w.clients() closed-loop
// callers until d has passed, at least one each; a unit started before then
// runs to completion. Phases continue each other's unit numbers, so no two
// units of a run share an index (daemon-whatif derives fresh specs from it).
func measure(w workload, first int, d time.Duration, tr *tracer, stderr io.Writer) *phase {
	ph := &phase{firstEnd: -1}
	runtime.GC()
	runtime.ReadMemStats(&ph.mem0)
	var (
		mu   sync.Mutex
		next = first
		wg   sync.WaitGroup
	)
	stopRSS := sampleRSS(&ph.peakRSS)
	start := time.Now()
	for c := 0; c < w.clients(); c++ {
		var cl *spanLog
		if tr != nil {
			cl = tr.newLog()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < d; n++ {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				t0 := time.Now()
				out, err := w.unit(i, tr, cl)
				dt := time.Since(t0)
				if err == nil {
					err = w.check(i, out)
				}
				mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
					if ph.failed <= 5 {
						fmt.Fprintf(stderr, "perfbench: unit %d failed: %v\n", i, err)
					}
				} else {
					ph.durs = append(ph.durs, float64(dt)/1e6)
				}
				if tr != nil && ph.firstEnd < 0 {
					ph.firstEnd = tr.now()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	stopRSS()
	runtime.ReadMemStats(&ph.mem1)
	return ph
}

// endToEnd is what a user of the simulator sees.
func endToEnd(ph *phase, setupS, setupRSS float64) map[string]metric {
	n := float64(max(len(ph.durs), 1))
	return map[string]metric{
		"setup_s":      {setupS, "s"},
		"setup_rss_mb": {setupRSS, "MB"},
		"units_per_s":  {float64(len(ph.durs)) / ph.elapsed.Seconds(), "1/s"},
		"unit_p50_ms":  {median(ph.durs), "ms"},
		"alloc_mb":     {float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / 1e6 / n, "MB"},
		"peak_rss_mb":  {ph.peakRSS, "MB"},
	}
}

// perLayer turns a traced phase's totals into per-unit figures. gc.* come
// from the untraced half, whose allocations are the program's own.
func perLayer(t layerTotals, plain, timed *phase, traceLoad time.Duration) map[string]metric {
	n := float64(max(len(timed.durs), 1))
	np := float64(max(len(plain.durs), 1))
	ms := func(l layer) float64 { return float64(t.busy[l]) / 1e6 / n }
	per := func(x int) float64 { return float64(x) / n }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	usPerCall := 0.0
	if c := t.calls[lPlace]; c > 0 {
		usPerCall = float64(t.busy[lPlace]) / 1e3 / float64(c)
	}
	nsPerServerTick := 0.0
	if t.serverTicks > 0 {
		nsPerServerTick = float64(t.kernelSelf) / float64(t.serverTicks)
	}
	hitRatio := 0.0
	if c := t.calls[lCompile]; c > 0 {
		hitRatio = 1 - ratio(t.misses, c)
	}
	upsPlain := float64(len(plain.durs)) / plain.elapsed.Seconds()
	upsTimed := float64(len(timed.durs)) / timed.elapsed.Seconds()
	overhead := 0.0
	if upsTimed > 0 {
		overhead = (upsPlain/upsTimed - 1) * 100
	}
	return map[string]metric{
		"place.calls":               {per(t.calls[lPlace]), "count"},
		"place.rejects":             {per(t.rejects), "count"},
		"place.busy_ms":             {ms(lPlace), "ms"},
		"place.us_per_call":         {usPerCall, "us"},
		"kernel.self_ms":            {float64(t.kernelSelf) / 1e6 / n, "ms"},
		"kernel.ns_per_server_tick": {nsPerServerTick, "ns"},
		"tick.count":                {per(t.calls[lTick]), "count"},
		"route.calls":               {per(t.calls[lRoute]), "count"},
		"route.busy_ms":             {ms(lRoute), "ms"},
		"configure.calls":           {per(t.calls[lConfigure]), "count"},
		"configure.busy_ms":         {ms(lConfigure), "ms"},
		"cap.calls":                 {per(t.calls[lCapRow] + t.calls[lCapAisle]), "count"},
		"cap.busy_ms":               {ms(lCapRow) + ms(lCapAisle), "ms"},
		"route_req.calls":           {per(t.calls[lRouteReq] + t.calls[lAdmit]), "count"},
		"route_req.busy_ms":         {ms(lRouteReq) + ms(lAdmit), "ms"},
		"admit.shed_ratio":          {ratio(t.sheds, t.admits), "ratio"},
		"compile.calls":             {per(t.calls[lCompile]), "count"},
		"compile.misses":            {per(t.misses), "count"},
		"compile.hit_ratio":         {hitRatio, "ratio"},
		"compile.busy_ms":           {ms(lCompile), "ms"},
		"campaign.compiles":         {per(t.compiles), "count"},
		"trace.load_ms":             {float64(traceLoad) / 1e6, "ms"},
		"serve.submit_ms":           {ms(lSubmit), "ms"},
		"serve.queue_wait_ms":       {ms(lQueueWait), "ms"},
		"serve.job_run_ms":          {ms(lJobRun), "ms"},
		"serve.report_ms":           {ms(lReport), "ms"},
		"serve.rejected":            {per(t.rejected), "count"},
		"gc.cycles":                 {float64(plain.mem1.NumGC-plain.mem0.NumGC) / np, "count"},
		"gc.pause_ms":               {float64(plain.mem1.PauseTotalNs-plain.mem0.PauseTotalNs) / 1e6 / np, "ms"},
		"trace.overhead_pct":        {overhead, "%"},
		"traced.unit_ms":            {sum(timed.durs) / n, "ms"},
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

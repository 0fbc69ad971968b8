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
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/serve"
	"github.com/tapas-sim/tapas/internal/sim"
)

// hotFactors are the SaaS demand factors of the what-if specs that repeat
// (after warm-up their compilations are cached in the daemon).
var hotFactors = []float64{1, 1.25, 1.5, 2}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("daemon rejected the submission (429)")

// daemon drives an in-process campaign daemon over loopback HTTP with a
// closed loop of clients. One unit is one job: submit a what-if spec, stream
// its events until done, fetch its report. About half the jobs repeat a hot
// spec (a compile-cache hit); the rest carry a demand factor no job used
// before (a miss).
type daemon struct {
	seed    uint64
	baseDir string // anchors the specs' relative trace path

	sched  *serve.Scheduler
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	hot    [][]byte // hot spec bodies
	hotExp [][]byte // their in-process reports
	hotRes []*sim.Result

	mu        sync.Mutex
	pending   map[int][]byte // fresh job → the report it returned, verified after the phase
	traceOnce sync.Once
}

func newDaemonWhatIf(root string, seed uint64) *daemon {
	return &daemon{seed: seed, baseDir: filepath.Join(root, "examples", "scenarios"), pending: map[int][]byte{}}
}

// whatIfSpec is a small what-if campaign on the committed pinned trace:
// Baseline and TAPAS in three climates for 20 minutes at 5-second ticks,
// with SaaS demand scaled by factor, a compile-relevant value.
func whatIfSpec(factor float64) []byte {
	return []byte(`{"name": "what-if", "layout": {"preset": "small"}, "duration": "20m", "tick": "5s",` +
		` "workload": {"trace": "pinned-small.trace.csv", "transforms": [{"op": "demand_scale", "saas": ` +
		strconv.FormatFloat(factor, 'g', -1, 64) + `}]},` +
		` "axes": [{"param": "region", "values": ["hot", "temperate", "cool"]}], "policies": ["baseline", "tapas"]}`)
}

// jobSpec returns job i's spec and its index into hot, -1 for a fresh spec.
// The choice and the fresh factor derive from the seed; fresh factors grow
// with i, so no two jobs share one, and none equals a hot factor.
func (d *daemon) jobSpec(i int) ([]byte, int) {
	h := splitmix(d.seed ^ splitmix(uint64(i)))
	if h&1 == 0 {
		k := int(h>>1) % len(hotFactors)
		return d.hot[k], k
	}
	f := 1 + float64(splitmix(d.seed)>>11)/(1<<53) + 1e-6*float64(i+1)
	for _, h := range hotFactors {
		if f == h {
			f = math.Nextafter(f, 3)
		}
	}
	return whatIfSpec(f), -1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (d *daemon) clients() int { return runtime.NumCPU() }

// setup renders every hot spec in-process (the reports the daemon must
// reproduce), starts the daemon on loopback and warms it with one job per
// hot spec.
func (d *daemon) setup() (time.Duration, error) {
	for _, f := range hotFactors {
		body := whatIfSpec(f)
		rep, res, err := d.render(body)
		if err != nil {
			return 0, err
		}
		d.hot = append(d.hot, body)
		d.hotExp = append(d.hotExp, rep)
		d.hotRes = append(d.hotRes, flatten(res.Runs)...)
	}
	d.sched = serve.NewScheduler(serve.SchedulerConfig{Parallel: runtime.NumCPU()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	d.url = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: serve.NewServer(d.sched, d.baseDir).Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	n := d.clients()
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	for k, body := range d.hot {
		rep, err := d.job(body, nil)
		if err != nil {
			return 0, fmt.Errorf("warming the daemon: %w", err)
		}
		if !bytes.Equal(rep, d.hotExp[k]) {
			return 0, fmt.Errorf("warming the daemon: hot spec %d: daemon report differs from the in-process one", k)
		}
	}
	return timeTraceLoad("pinned-small.trace.csv", "", d.baseDir)
}

// render is the in-process rendering of a spec: what tapas-campaign prints.
func (d *daemon) render(body []byte) ([]byte, *scenario.Result, error) {
	spec, err := scenario.Parse(body)
	if err != nil {
		return nil, nil, err
	}
	spec.SetBaseDir(d.baseDir)
	camp, err := spec.Campaign(0)
	if err != nil {
		return nil, nil, err
	}
	res, err := camp.Run(scenario.RunOptions{Parallel: runtime.NumCPU()})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), res, nil
}

type daemonOut struct {
	hot    int // index into hot, -1 for a fresh spec
	report []byte
}

// unit runs job i. The daemon compiles inside its scheduler, out of the
// benchmark's reach, so a traced phase reads the compile counts from the
// daemon's cache counters: lookups and cold compiles since the phase began.
func (d *daemon) unit(i int, tr *tracer, cl *spanLog) (any, error) {
	body, hot := d.jobSpec(i)
	if tr != nil {
		d.traceOnce.Do(func() {
			base := d.sched.CacheStats()
			tr.onReduce(func(t *layerTotals) {
				now := d.sched.CacheStats()
				t.calls[lCompile] += int(now.Scenarios.Hits + now.Scenarios.Misses - base.Scenarios.Hits - base.Scenarios.Misses)
				t.misses += int(now.Compiles - base.Compiles)
			})
		})
	}
	rep, err := d.job(body, cl)
	if cl != nil && errors.Is(err, errRejected) {
		cl.rejected++
	}
	return daemonOut{hot: hot, report: rep}, err
}

// job submits one spec and returns its report, recording the submit, queue
// wait, run and report-fetch spans on cl when it is non-nil.
func (d *daemon) job(body []byte, cl *spanLog) ([]byte, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var view struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	drain(resp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, errRejected
	case resp.StatusCode != http.StatusCreated:
		return nil, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	case err != nil:
		return nil, fmt.Errorf("submit: %w", err)
	}
	submitted := time.Now()

	resp, err = d.client.Get(d.url + "/campaigns/" + view.ID + "/events")
	if err != nil {
		return nil, err
	}
	var started, done time.Time
	status, compiles := "", 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // the result event carries the report
	for sc.Scan() {
		var ev struct {
			Type     string `json:"type"`
			Status   string `json:"status"`
			Error    string `json:"error"`
			Compiles int    `json:"compiles"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			drain(resp)
			return nil, fmt.Errorf("events: %w", err)
		}
		switch ev.Type {
		case "start":
			started = time.Now()
		case "result":
			compiles = ev.Compiles
		case "done":
			done, status = time.Now(), ev.Status
			if ev.Error != "" {
				status += ": " + ev.Error
			}
		}
	}
	err = sc.Err()
	drain(resp)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if status != string(serve.StatusDone) {
		return nil, fmt.Errorf("job %s ended %q", view.ID, status)
	}

	resp, err = d.client.Get(d.url + "/campaigns/" + view.ID + "/report")
	if err != nil {
		return nil, err
	}
	rep, err := io.ReadAll(resp.Body)
	drain(resp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return nil, err
	}
	if cl != nil {
		cl.compiles += compiles
		tr := cl.tr
		at := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
		cl.spans = append(cl.spans,
			span{lSubmit, at(t0), at(submitted)},
			span{lQueueWait, at(submitted), at(started)},
			span{lJobRun, at(started), at(done)},
			span{lReport, at(done), tr.now()})
	}
	return rep, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
	resp.Body.Close()
}

// check compares a hot job's report now; a fresh job's waits for verify.
func (d *daemon) check(i int, out any) error {
	o := out.(daemonOut)
	if o.hot >= 0 {
		if !bytes.Equal(o.report, d.hotExp[o.hot]) {
			return fmt.Errorf("job %d: daemon report differs from the in-process one", i)
		}
		return nil
	}
	d.mu.Lock()
	d.pending[i] = o.report
	d.mu.Unlock()
	return nil
}

// verify renders every fresh job's spec in-process and compares it with the
// report the daemon returned, after the timed phase.
func (d *daemon) verify() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	failed := 0
	for i, got := range d.pending {
		body, _ := d.jobSpec(i)
		want, _, err := d.render(body)
		if err != nil {
			return failed, err
		}
		if !bytes.Equal(got, want) {
			failed++
		}
	}
	d.pending = map[int][]byte{}
	return failed, nil
}

func (d *daemon) results() []*sim.Result { return d.hotRes }

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx) // errors only when ctx expires; the scheduler shutdown below reports that too
		<-d.served
	}
	if d.sched != nil {
		_ = d.sched.Shutdown(ctx) // every job has finished: the loop only stops after a job completes
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
)

// layer names one kind of span. Policy hooks and ticks are recorded by the
// policy decorator and the engine's Observer; the rest by the workloads
// around their calls into sim, scenario and the daemon's HTTP API.
type layer uint8

const (
	lPlace layer = iota
	lRoute
	lConfigure
	lCapRow
	lCapAisle
	lRouteReq
	lAdmit
	lInit
	lTick
	lCompile
	lCampaign
	lSubmit
	lQueueWait
	lJobRun
	lReport
	nLayers
)

var layerNames = [nLayers]string{
	"place", "route", "configure", "cap_row", "cap_aisle", "route_req", "admit",
	"init", "tick", "compile", "campaign", "submit", "queue_wait", "job_run", "report",
}

// isHook reports whether spans of l are policy calls the engine makes from
// inside a tick, and so are children of that tick's span.
func (l layer) isHook() bool { return l <= lAdmit }

// span is one timed interval, in nanoseconds since the tracer's epoch.
type span struct {
	layer      layer
	start, end int64
}

// spanLog is the spans of one single-threaded actor: one simulation run (its
// policy hooks and ticks) or one load-generating client. Only its owner
// appends to it; the tracer reads it after the phase has ended.
type spanLog struct {
	tr    *tracer
	spans []span
	// Simulation runs only: the state the run was bound to, its server
	// count, where the current tick began, and outcome counters.
	st            *cluster.State
	servers       int
	tickStart     int64
	rejects       int
	admits, sheds int
	// Load-generating clients only: compiles the campaigns reported, cold
	// compiles among the client's own compile calls, and 429 responses.
	compiles, misses int
	rejected         int
}

// tracer collects span logs in memory for one traced phase and reduces them
// into per-layer totals when the phase ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	logs     []*spanLog
	byState  map[*cluster.State]*spanLog
	reducers []func(*layerTotals)
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byState: make(map[*cluster.State]*spanLog)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newLog registers a span log for one actor.
func (t *tracer) newLog() *spanLog {
	l := &spanLog{tr: t}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// onReduce registers f to add counts the spans cannot carry to the totals.
func (t *tracer) onReduce(f func(*layerTotals)) {
	t.mu.Lock()
	t.reducers = append(t.reducers, f)
	t.mu.Unlock()
}

// enter starts a policy-hook span, binding the log to the run's state on the
// first call so the Observer can find it; the first tick starts here.
func (l *spanLog) enter(st *cluster.State) int64 {
	now := l.tr.now()
	if l.st == nil {
		l.st = st
		l.servers = len(st.DC.Servers)
		l.tickStart = now
		l.tr.mu.Lock()
		l.tr.byState[st] = l
		l.tr.mu.Unlock()
	}
	return now
}

// leave closes a span begun at start and returns its end.
func (l *spanLog) leave(ly layer, start int64) int64 {
	end := l.tr.now()
	l.spans = append(l.spans, span{layer: ly, start: start, end: end})
	return end
}

// observe is the engine's Observer: it closes the tick that just ended. The
// next tick starts when observe returns, so its own cost stays out of both.
func (t *tracer) observe(st *cluster.State) {
	end := t.now()
	t.mu.Lock()
	l := t.byState[st]
	t.mu.Unlock()
	if l == nil {
		// A policy that makes no call before the first tick ends cannot be
		// bound yet; its first tick is not recorded.
		return
	}
	l.spans = append(l.spans, span{layer: lTick, start: l.tickStart, end: end})
	l.tickStart = t.now()
}

// timed runs f inside a span of layer ly on log l; with no log (an
// untraced unit) it just runs f.
func (l *spanLog) timed(ly layer, f func() error) error {
	if l == nil {
		return f()
	}
	start := l.tr.now()
	err := f()
	l.leave(ly, start)
	return err
}

// layerTotals are a phase's per-layer sums.
type layerTotals struct {
	calls       [nLayers]int
	busy        [nLayers]int64 // ns
	kernelSelf  int64          // ns: tick spans minus the hook spans inside them
	serverTicks int64
	rejects     int
	admits      int
	sheds       int
	compiles    int
	misses      int
	rejected    int
}

// reduce folds every log into per-layer totals. Call it after the phase:
// logs are read without their owners' involvement.
func (t *tracer) reduce() layerTotals {
	var tot layerTotals
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids []span
	for _, l := range t.logs {
		kids = kids[:0]
		for _, s := range l.spans {
			tot.calls[s.layer]++
			tot.busy[s.layer] += s.end - s.start
			switch {
			case s.layer.isHook():
				kids = append(kids, s)
			case s.layer == lTick:
				tot.kernelSelf += selfTime(s, kids)
				tot.serverTicks += int64(l.servers)
				kids = kids[:0]
			}
		}
		tot.rejects += l.rejects
		tot.admits += l.admits
		tot.sheds += l.sheds
		tot.compiles += l.compiles
		tot.misses += l.misses
		tot.rejected += l.rejected
	}
	for _, f := range t.reducers {
		f(&tot)
	}
	return tot
}

// writeSpans writes the spans that started before until (ns since epoch) as
// a Chrome trace-event file (chrome://tracing, Perfetto), one thread per
// span log.
func (t *tracer) writeSpans(path string, until int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprint(w, "[")
	sep := ""
	for tid, l := range t.logs {
		for _, s := range l.spans {
			if s.start >= until {
				continue
			}
			name, _ := json.Marshal(layerNames[s.layer])
			fmt.Fprintf(w, "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
				sep, name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3)
			sep = ","
		}
	}
	fmt.Fprint(w, "\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// replay runs a committed campaign spec end to end, once per unit, through
// scenario.Campaign.Run with a fresh compile cache, and checks the rendered
// report against the committed golden file.
type replay struct {
	specPath, goldenPath string

	camp   *scenario.Campaign
	golden []byte

	mu    sync.Mutex
	first []*sim.Result // the first unit's runs, for the model counters
}

// newReplayPowerLoop is examples/scenarios/power-loop.json: request-level
// replay on the heterogeneous A100/H100 fleet, 18 runs over 6 compiles. Its
// inputs are committed, so the seed selects nothing.
func newReplayPowerLoop(root string) *replay {
	return &replay{
		specPath:   filepath.Join(root, "examples", "scenarios", "power-loop.json"),
		goldenPath: filepath.Join(root, "internal", "scenario", "testdata", "golden", "power-loop.txt"),
	}
}

// clients runs one serial campaign per core at a time. One campaign fanned
// out over every core ends each unit with an idle tail whose length depends
// on which worker draws the 8× runs last. In interleaved runs it spread
// unit_p50_ms over runs four times wider (23% against 6%) than serial
// campaigns side by side.
func (r *replay) clients() int { return runtime.NumCPU() }

// setup loads the spec (with its trace and request log) and the golden, then
// compiles every point once to fit the offline profiles the policies' Init
// would otherwise fit in the first unit; those compilations are discarded.
func (r *replay) setup() (time.Duration, error) {
	spec, err := scenario.Load(r.specPath)
	if err != nil {
		return 0, err
	}
	if r.camp, err = spec.Campaign(0); err != nil {
		return 0, err
	}
	if r.golden, err = os.ReadFile(r.goldenPath); err != nil {
		return 0, err
	}
	for _, pt := range r.camp.Points {
		cs, err := sim.Compile(pt.Scenario)
		if err != nil {
			return 0, err
		}
		if _, err := core.ProfilesFor(cs.DC); err != nil {
			return 0, err
		}
	}
	return timeTraceLoad(spec.Workload.Trace, spec.Workload.Requests, filepath.Dir(r.specPath))
}

// timeTraceLoad times one load of a spec's recorded workload and request
// log, the inputs every expansion of the spec parses.
func timeTraceLoad(tracePath, requestsPath, dir string) (time.Duration, error) {
	start := time.Now()
	if tracePath != "" {
		if _, err := trace.LoadWorkloadCSV(filepath.Join(dir, tracePath)); err != nil {
			return 0, err
		}
	}
	if requestsPath != "" {
		if _, err := trace.LoadRequestsCSV(filepath.Join(dir, requestsPath)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// unit runs the whole campaign serially and renders its report. Traced, it first
// compiles every point through the unit's fresh cache (timed, so the
// campaign's own compiles hit) and then runs a copy of the campaign whose
// policies are wrapped in the timing decorator and whose points carry the
// tick Observer.
func (r *replay) unit(_ int, tr *tracer, cl *spanLog) (any, error) {
	opt := scenario.RunOptions{Parallel: 1, Cache: sim.NewCompileCache(0)}
	camp := r.camp
	if tr != nil {
		camp = tracedCampaign(r.camp, tr)
		if err := compilePoints(camp, opt.Cache, cl); err != nil {
			return nil, err
		}
	}
	var res *scenario.Result
	if err := cl.timed(lCampaign, func() (err error) {
		res, err = camp.Run(opt)
		return err
	}); err != nil {
		return nil, err
	}
	if cl != nil {
		cl.compiles += res.Compiles
	}
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		return nil, err
	}
	return replayOut{report: buf.Bytes(), runs: flatten(res.Runs)}, nil
}

type replayOut struct {
	report []byte
	runs   []*sim.Result
}

func (r *replay) check(_ int, out any) error {
	o := out.(replayOut)
	r.mu.Lock()
	if r.first == nil {
		r.first = o.runs
	}
	r.mu.Unlock()
	if !bytes.Equal(o.report, r.golden) {
		return fmt.Errorf("report differs from %s", r.goldenPath)
	}
	return nil
}

func (r *replay) verify() (int, error) { return 0, nil }

func (r *replay) results() []*sim.Result { return r.first }

func (r *replay) close() {}

// tracedCampaign copies camp with every policy wrapped in the tracer's
// decorator and every point's scenario carrying the tracer's Observer (a
// runtime-only field: compile keys and reports are unchanged).
func tracedCampaign(camp *scenario.Campaign, tr *tracer) *scenario.Campaign {
	c := *camp
	c.Points = append([]scenario.Point(nil), camp.Points...)
	for i := range c.Points {
		c.Points[i].Scenario.Observer = tr.observe
	}
	c.Policies = append([]scenario.Policy(nil), camp.Policies...)
	for i := range c.Policies {
		newPol := c.Policies[i].New
		c.Policies[i].New = func() sim.Policy { return tr.wrap(newPol()) }
	}
	return &c
}

// compilePoints compiles every point of camp through cache, one compile span
// per call, and counts the cold compiles among them.
func compilePoints(camp *scenario.Campaign, cache *sim.CompileCache, cl *spanLog) error {
	for _, pt := range camp.Points {
		before := cache.Compiles()
		if err := cl.timed(lCompile, func() error {
			_, err := cache.Compile(pt.Scenario)
			return err
		}); err != nil {
			return err
		}
		cl.misses += int(cache.Compiles() - before)
	}
	return nil
}

func flatten(runs [][]*sim.Result) []*sim.Result {
	var out []*sim.Result
	for _, rs := range runs {
		out = append(out, rs...)
	}
	return out
}

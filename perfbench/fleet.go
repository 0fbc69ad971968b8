package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/sim"
)

// fleet runs one compiled binned-mode scenario under TAPAS, once per unit.
// Every unit's result must match the first unit's: the engine is
// deterministic, traced or not.
type fleet struct {
	sc sim.Scenario
	cs *sim.CompiledScenario

	mu     sync.Mutex
	first  *sim.Result // the first unit's result; the others must match it
	digest [sha256.Size]byte
}

// newFleetFill is a 3× fleet filling up over two hours at the diurnal peak:
// placement dominates its host time.
func newFleetFill(seed uint64) *fleet {
	sc := sim.DefaultScenario()
	sc.Layout.FleetScale = 3
	sc.Duration = 2 * time.Hour
	sc.StartOffset = 13 * time.Hour
	return newFleet(sc, seed)
}

// newFleetWeek is the paper's 1× fleet (1,040 servers) for one week at
// one-minute ticks, the Fig. 19 setup: the tick kernel dominates.
func newFleetWeek(seed uint64) *fleet {
	return newFleet(sim.DefaultScenario(), seed)
}

func newFleet(sc sim.Scenario, seed uint64) *fleet {
	sc.Workload.Seed = seed
	sc.Workload.Duration = sc.Duration
	return &fleet{sc: sc}
}

// clients runs one serial simulation per core at a time, like the
// experiments' run fan-out.
func (f *fleet) clients() int { return runtime.NumCPU() }

// setup compiles the scenario and fits the offline profiles TAPAS's Init
// would otherwise fit in the first unit. Generated workloads load no trace.
func (f *fleet) setup() (time.Duration, error) {
	cs, err := sim.Compile(f.sc)
	if err != nil {
		return 0, err
	}
	if _, err := core.ProfilesFor(cs.DC); err != nil {
		return 0, err
	}
	f.cs = cs
	return 0, nil
}

func (f *fleet) unit(_ int, tr *tracer, _ *spanLog) (any, error) {
	cs := f.cs
	var pol sim.Policy = core.New(core.Options{Place: true, Route: true, Config: true})
	if tr != nil {
		cs = cs.Variant(func(sc *sim.Scenario) { sc.Observer = tr.observe })
		pol = tr.wrap(pol)
	}
	return cs.Run(pol)
}

// check compares the unit's result digest with the first unit's.
func (f *fleet) check(_ int, out any) error {
	res := out.(*sim.Result)
	d := resultDigest(res)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.first == nil {
		f.first, f.digest = res, d
		return nil
	}
	if d != f.digest {
		return fmt.Errorf("result digest %x differs from the first unit's %x", d[:8], f.digest[:8])
	}
	return nil
}

func (f *fleet) verify() (int, error) { return 0, nil }

func (f *fleet) results() []*sim.Result { return []*sim.Result{f.first} }

func (f *fleet) close() {}

// resultDigest hashes every field of a result. %v prints floats in their
// shortest round-trip form, so equal digests mean equal results.
func resultDigest(r *sim.Result) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%+v", *r)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

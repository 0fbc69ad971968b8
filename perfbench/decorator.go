package main

//go:generate go run gen_decorator.go

import (
	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Mask bits of the optional extensions the engine type-asserts on a policy.
const (
	mInit uint8 = 1 << iota
	mRouter
	mAdmitter
	mScheduler
	mSLOTunable
	mGovTunable
)

// extMask returns the set of optional engine extensions p implements.
func extMask(p sim.Policy) uint8 {
	var m uint8
	if _, ok := p.(sim.Initializer); ok {
		m |= mInit
	}
	if _, ok := p.(sim.RequestRouter); ok {
		m |= mRouter
	}
	if _, ok := p.(sim.RequestAdmitter); ok {
		m |= mAdmitter
	}
	if _, ok := p.(sim.RequestScheduler); ok {
		m |= mScheduler
	}
	if _, ok := p.(sim.SLOTunable); ok {
		m |= mSLOTunable
	}
	if _, ok := p.(sim.PowerGovTunable); ok {
		m |= mGovTunable
	}
	return m
}

// wrap returns a timing decorator around p that records every hook call into
// a fresh span log, one per simulation run. The decorator implements exactly
// the optional extensions p implements: an extra one would change the run
// (an AdmitRequest replaces RouteRequest), a missing one would drop it.
func (t *tracer) wrap(p sim.Policy) sim.Policy {
	tp := &tracedPolicy{inner: p, log: t.newLog()}
	i, _ := p.(sim.Initializer)
	r, _ := p.(sim.RequestRouter)
	a, _ := p.(sim.RequestAdmitter)
	s, _ := p.(sim.RequestScheduler)
	st, _ := p.(sim.SLOTunable)
	g, _ := p.(sim.PowerGovTunable)
	return combine(extMask(p), tp,
		initHook{tp, i}, routerHook{tp, r}, admitterHook{tp, a},
		schedulerHook{s}, sloTunableHook{st}, govTunableHook{g})
}

// tracedPolicy times the sim.Policy methods every policy has.
type tracedPolicy struct {
	inner sim.Policy
	log   *spanLog
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Place(st *cluster.State, vm *cluster.VM) (int, bool) {
	t := p.log.enter(st)
	id, ok := p.inner.Place(st, vm)
	p.log.leave(lPlace, t)
	if !ok {
		p.log.rejects++
	}
	return id, ok
}

func (p *tracedPolicy) Route(st *cluster.State, ep trace.EndpointSpec, prompt, output float64) {
	t := p.log.enter(st)
	p.inner.Route(st, ep, prompt, output)
	p.log.leave(lRoute, t)
}

func (p *tracedPolicy) Configure(st *cluster.State) {
	t := p.log.enter(st)
	p.inner.Configure(st)
	p.log.leave(lConfigure, t)
}

func (p *tracedPolicy) CapRow(st *cluster.State, row int, drawW, limitW float64) {
	t := p.log.enter(st)
	p.inner.CapRow(st, row, drawW, limitW)
	p.log.leave(lCapRow, t)
}

func (p *tracedPolicy) CapAisle(st *cluster.State, aisle int, demandCFM, limitCFM float64) {
	t := p.log.enter(st)
	p.inner.CapAisle(st, aisle, demandCFM, limitCFM)
	p.log.leave(lCapAisle, t)
}

type initHook struct {
	p *tracedPolicy
	x sim.Initializer
}

// Init is timed on its own; the first tick starts after it.
func (h initHook) Init(st *cluster.State) error {
	t := h.p.log.enter(st)
	err := h.x.Init(st)
	h.p.log.tickStart = h.p.log.leave(lInit, t)
	return err
}

type routerHook struct {
	p *tracedPolicy
	x sim.RequestRouter
}

func (h routerHook) RouteRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	t := h.p.log.enter(st)
	idx, ok := h.x.RouteRequest(st, insts, req)
	h.p.log.leave(lRouteReq, t)
	return idx, ok
}

type admitterHook struct {
	p *tracedPolicy
	x sim.RequestAdmitter
}

func (h admitterHook) AdmitRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	t := h.p.log.enter(st)
	idx, admit := h.x.AdmitRequest(st, insts, req)
	h.p.log.leave(lAdmit, t)
	h.p.log.admits++
	if !admit {
		h.p.log.sheds++
	}
	return idx, admit
}

// The remaining extensions run once per run and are passed through untimed.

type schedulerHook struct{ x sim.RequestScheduler }

func (h schedulerHook) QueueDiscipline() llm.Discipline { return h.x.QueueDiscipline() }

type sloTunableHook struct{ x sim.SLOTunable }

func (h sloTunableHook) TuneSLO(affinityWeight, admissionSlack float64) {
	h.x.TuneSLO(affinityWeight, admissionSlack)
}

type govTunableHook struct{ x sim.PowerGovTunable }

func (h govTunableHook) TunePowerGov(budgetFrac, gain float64) { h.x.TunePowerGov(budgetFrac, gain) }

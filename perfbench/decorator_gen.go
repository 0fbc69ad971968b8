// Code generated by gen_decorator.go; DO NOT EDIT.

package main

import "github.com/tapas-sim/tapas/internal/sim"

// combine returns p with exactly the extension hooks named by mask.
func combine(mask uint8, p *tracedPolicy, i initHook, r routerHook, a admitterHook, s schedulerHook, t sloTunableHook, g govTunableHook) sim.Policy {
	switch mask {
	case mInit:
		return struct {
			*tracedPolicy
			initHook
		}{p, i}
	case mRouter:
		return struct {
			*tracedPolicy
			routerHook
		}{p, r}
	case mInit | mRouter:
		return struct {
			*tracedPolicy
			initHook
			routerHook
		}{p, i, r}
	case mAdmitter:
		return struct {
			*tracedPolicy
			admitterHook
		}{p, a}
	case mInit | mAdmitter:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
		}{p, i, a}
	case mRouter | mAdmitter:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
		}{p, r, a}
	case mInit | mRouter | mAdmitter:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
		}{p, i, r, a}
	case mScheduler:
		return struct {
			*tracedPolicy
			schedulerHook
		}{p, s}
	case mInit | mScheduler:
		return struct {
			*tracedPolicy
			initHook
			schedulerHook
		}{p, i, s}
	case mRouter | mScheduler:
		return struct {
			*tracedPolicy
			routerHook
			schedulerHook
		}{p, r, s}
	case mInit | mRouter | mScheduler:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			schedulerHook
		}{p, i, r, s}
	case mAdmitter | mScheduler:
		return struct {
			*tracedPolicy
			admitterHook
			schedulerHook
		}{p, a, s}
	case mInit | mAdmitter | mScheduler:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			schedulerHook
		}{p, i, a, s}
	case mRouter | mAdmitter | mScheduler:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			schedulerHook
		}{p, r, a, s}
	case mInit | mRouter | mAdmitter | mScheduler:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			schedulerHook
		}{p, i, r, a, s}
	case mSLOTunable:
		return struct {
			*tracedPolicy
			sloTunableHook
		}{p, t}
	case mInit | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			sloTunableHook
		}{p, i, t}
	case mRouter | mSLOTunable:
		return struct {
			*tracedPolicy
			routerHook
			sloTunableHook
		}{p, r, t}
	case mInit | mRouter | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			sloTunableHook
		}{p, i, r, t}
	case mAdmitter | mSLOTunable:
		return struct {
			*tracedPolicy
			admitterHook
			sloTunableHook
		}{p, a, t}
	case mInit | mAdmitter | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			sloTunableHook
		}{p, i, a, t}
	case mRouter | mAdmitter | mSLOTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			sloTunableHook
		}{p, r, a, t}
	case mInit | mRouter | mAdmitter | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			sloTunableHook
		}{p, i, r, a, t}
	case mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			schedulerHook
			sloTunableHook
		}{p, s, t}
	case mInit | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			schedulerHook
			sloTunableHook
		}{p, i, s, t}
	case mRouter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			routerHook
			schedulerHook
			sloTunableHook
		}{p, r, s, t}
	case mInit | mRouter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			schedulerHook
			sloTunableHook
		}{p, i, r, s, t}
	case mAdmitter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			admitterHook
			schedulerHook
			sloTunableHook
		}{p, a, s, t}
	case mInit | mAdmitter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			schedulerHook
			sloTunableHook
		}{p, i, a, s, t}
	case mRouter | mAdmitter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			schedulerHook
			sloTunableHook
		}{p, r, a, s, t}
	case mInit | mRouter | mAdmitter | mScheduler | mSLOTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			schedulerHook
			sloTunableHook
		}{p, i, r, a, s, t}
	case mGovTunable:
		return struct {
			*tracedPolicy
			govTunableHook
		}{p, g}
	case mInit | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			govTunableHook
		}{p, i, g}
	case mRouter | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			govTunableHook
		}{p, r, g}
	case mInit | mRouter | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			govTunableHook
		}{p, i, r, g}
	case mAdmitter | mGovTunable:
		return struct {
			*tracedPolicy
			admitterHook
			govTunableHook
		}{p, a, g}
	case mInit | mAdmitter | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			govTunableHook
		}{p, i, a, g}
	case mRouter | mAdmitter | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			govTunableHook
		}{p, r, a, g}
	case mInit | mRouter | mAdmitter | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			govTunableHook
		}{p, i, r, a, g}
	case mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			schedulerHook
			govTunableHook
		}{p, s, g}
	case mInit | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			schedulerHook
			govTunableHook
		}{p, i, s, g}
	case mRouter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			schedulerHook
			govTunableHook
		}{p, r, s, g}
	case mInit | mRouter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			schedulerHook
			govTunableHook
		}{p, i, r, s, g}
	case mAdmitter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			admitterHook
			schedulerHook
			govTunableHook
		}{p, a, s, g}
	case mInit | mAdmitter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			schedulerHook
			govTunableHook
		}{p, i, a, s, g}
	case mRouter | mAdmitter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			schedulerHook
			govTunableHook
		}{p, r, a, s, g}
	case mInit | mRouter | mAdmitter | mScheduler | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			schedulerHook
			govTunableHook
		}{p, i, r, a, s, g}
	case mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			sloTunableHook
			govTunableHook
		}{p, t, g}
	case mInit | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			sloTunableHook
			govTunableHook
		}{p, i, t, g}
	case mRouter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			sloTunableHook
			govTunableHook
		}{p, r, t, g}
	case mInit | mRouter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			sloTunableHook
			govTunableHook
		}{p, i, r, t, g}
	case mAdmitter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			admitterHook
			sloTunableHook
			govTunableHook
		}{p, a, t, g}
	case mInit | mAdmitter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			sloTunableHook
			govTunableHook
		}{p, i, a, t, g}
	case mRouter | mAdmitter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			sloTunableHook
			govTunableHook
		}{p, r, a, t, g}
	case mInit | mRouter | mAdmitter | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			sloTunableHook
			govTunableHook
		}{p, i, r, a, t, g}
	case mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, s, t, g}
	case mInit | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, i, s, t, g}
	case mRouter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, r, s, t, g}
	case mInit | mRouter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, i, r, s, t, g}
	case mAdmitter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			admitterHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, a, s, t, g}
	case mInit | mAdmitter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			admitterHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, i, a, s, t, g}
	case mRouter | mAdmitter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			routerHook
			admitterHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, r, a, s, t, g}
	case mInit | mRouter | mAdmitter | mScheduler | mSLOTunable | mGovTunable:
		return struct {
			*tracedPolicy
			initHook
			routerHook
			admitterHook
			schedulerHook
			sloTunableHook
			govTunableHook
		}{p, i, r, a, s, t, g}
	}
	return p
}

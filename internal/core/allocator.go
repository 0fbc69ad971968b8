package core

import (
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/trace"
)

// allocator implements TAPAS workload placement (§4.1) as the three rules of
// §4.5: a validator filtering aisles/rows that would exceed airflow or power
// envelopes at predicted peak, a temperature preference (IaaS → cool
// servers, SaaS → warm servers), and an IaaS/SaaS balance preference.
type allocator struct {
	prof *Profiles

	// Validator projections, kept current across placements instead of
	// rebuilt per VM. rowPeakW is each row's projected peak power (model
	// sums, before the template floor) and aislePeakCFM each aisle's
	// projected peak airflow; srvPeakCFM is the per-server airflow term the
	// aisle sums are built from. A row is re-projected when its
	// cluster.State.RowOccEpoch moves, and the whole fleet when the state's
	// PeakEpoch moves (a changed peak-load estimate shifts every occupied
	// server's projection). Sums always restart from 0 in ascending server-ID
	// order, so they are bit-identical to a fresh pass over the fleet.
	projSt       *cluster.State // the state the projections describe
	peakEpoch    uint64
	rowEpoch     []uint64
	rowPeakW     []float64
	aislePeakCFM []float64
	srvPeakCFM   []float64

	// Candidate memo: a free server's projections under the reference
	// conditions depend only on the server, refOutside and the VM's
	// estimated load, and consecutive VMs often share an estimate (same
	// customer or endpoint, or the peak assumption). srvProj[id] is current
	// while its gen equals refGen, which advances whenever refOutside
	// changes. Filled lazily, for the free servers the validator admits.
	refOutside float64
	refGen     uint32
	srvProj    []serverProj

	// Per-placement scratch, sized once per state: srvRow maps server → row
	// so the candidate scan never dereferences a layout.Server, rowScore is
	// each row's validator verdict and preference score for the VM being
	// placed, and cands the candidate list.
	srvRow   []int32
	rowScore []int
	cands    []placeCandidate

	// rowTplPeakW is the hour-of-week template peak per row, rebuilt from
	// the rolling row-power telemetry (power.BuildTemplateRing over
	// cluster.State.RowPowerHist) on a templateRefresh cadence. −1 while a
	// row has less than a week of history — the validator then relies on
	// the per-VM model projections alone, exactly as it did before
	// templates existed (§4.1: peak assumptions until history accrues).
	rowTplPeakW []float64
	rowTplAt    time.Duration
	rowTplInit  bool
}

// templateRefresh is how often the allocator rebuilds row power templates
// from telemetry; template shape drifts slowly (diurnal/weekly), so rebuilds
// are cheap background maintenance, not per-placement work.
const templateRefresh = 6 * time.Hour

// templatePercentile matches the paper's conservative row templates
// (Fig. 14: P99 underpredicts < 4% of row-hours).
const templatePercentile = 99

// templateSamplesPerHour converts the history resolution to template
// buckets.
const templateSamplesPerHour = int(time.Hour / cluster.HistoryRes)

// refreshRowTemplates rebuilds the per-row template peaks when stale.
func (a *allocator) refreshRowTemplates(st *cluster.State) {
	if a.rowTplInit && st.Now-a.rowTplAt < templateRefresh {
		return
	}
	if a.rowTplPeakW == nil {
		a.rowTplPeakW = make([]float64, len(st.DC.Rows))
	}
	a.rowTplInit = true
	a.rowTplAt = st.Now
	for row := range a.rowTplPeakW {
		tpl, err := power.BuildTemplateRing(st.RowPowerHist[row], templateSamplesPerHour, templatePercentile)
		if err != nil {
			a.rowTplPeakW[row] = -1 // under a week of history
			continue
		}
		a.rowTplPeakW[row] = tpl.Peak()
	}
}

// serverProj memoizes one server's placement projections for refGen: its
// inlet at the reference conditions, and its hottest-GPU temperature at the
// load of the last VM evaluated on it.
type serverProj struct {
	gen    uint32 // allocator.refGen the entry belongs to; 0 = never filled
	inletC float64
	load   float64 // the load hotC was projected at; NaN = none yet
	hotC   float64
}

type placeCandidate struct {
	server   int
	predTemp float64
	row      int32
}

// rowClosed marks a row the validator rejects for the VM being placed.
const rowClosed = -1

// tempMargin keeps predicted GPU temperature this far below the throttle
// threshold when admitting SaaS VMs onto warm servers.
const tempMargin = 2.0

// placeDCLoad is the datacenter load at which placement evaluates inlet
// temperatures: a long-horizon choice, so a busy datacenter.
const placeDCLoad = 0.8

// bind sizes the per-state caches and scratch for st; placement calls it
// when the allocator first sees a state (or a different one).
func (a *allocator) bind(st *cluster.State) {
	n := len(st.DC.Servers)
	a.projSt = st
	a.rowEpoch = make([]uint64, len(st.DC.Rows))
	a.rowPeakW = make([]float64, len(st.DC.Rows))
	a.aislePeakCFM = make([]float64, len(st.DC.Aisles))
	a.srvPeakCFM = make([]float64, n)
	a.refGen = 0
	a.srvProj = make([]serverProj, n)
	a.srvRow = make([]int32, n)
	for _, srv := range st.DC.Servers {
		a.srvRow[srv.ID] = int32(srv.Row)
	}
	a.rowScore = make([]int, len(st.DC.Rows))
	a.cands = make([]placeCandidate, 0, n)
}

// refreshProjections brings the validator projections up to date with st:
// rows whose occupancy epoch moved are re-projected together with their
// aisles, and everything is re-projected when the peak-load estimates
// changed or the allocator is new to st.
func (a *allocator) refreshProjections(st *cluster.State) {
	full := a.projSt != st || a.peakEpoch != st.PeakEpoch()
	if a.projSt != st {
		a.bind(st)
	}
	a.peakEpoch = st.PeakEpoch()
	for _, aisle := range st.DC.Aisles {
		touched := false
		for _, row := range aisle.Rows {
			if full || a.rowEpoch[row.ID] != st.RowOccEpoch[row.ID] {
				a.projectRow(st, row)
				touched = true
			}
		}
		if touched {
			sum := 0.0
			for _, id := range aisle.ServerIDs() {
				sum += a.srvPeakCFM[id]
			}
			a.aislePeakCFM[aisle.ID] = sum
		}
	}
}

// projectRow re-projects every server of a row at its occupant's estimated
// peak load (idle when free) and re-sums the row's power. Row.Servers is in
// ascending ID order by construction (AddRacks appends higher IDs).
func (a *allocator) projectRow(st *cluster.State, row *layout.Row) {
	sum := 0.0
	for _, srv := range row.Servers {
		load := 0.0
		if vmID := st.ServerVM[srv.ID]; vmID != -1 {
			load = st.EstimateVMPeakLoad(st.VMs[vmID].Spec)
		}
		sum += a.prof.PowerFor(srv.GPU.Model).Predict(load)
		a.srvPeakCFM[srv.ID] = a.prof.AirflowFor(srv.GPU.Model).Predict(load)
	}
	a.rowPeakW[row.ID] = sum
	a.rowEpoch[row.ID] = st.RowOccEpoch[row.ID]
}

// rowPeak is a row's projected peak power floored by its observed template
// peak: rows whose history already shows draw near the envelope stay closed
// to new load even when per-VM estimates are optimistic (the paper's
// template-based row prediction, Fig. 14a).
func (a *allocator) rowPeak(row int) float64 {
	if tpl := a.rowTplPeakW[row]; tpl > a.rowPeakW[row] {
		return tpl
	}
	return a.rowPeakW[row]
}

// hottest returns a server's predicted hottest-GPU temperature at load
// under the reference conditions, memoized per refOutside and load.
func (a *allocator) hottest(id int, load float64) float64 {
	p := &a.srvProj[id]
	if p.gen != a.refGen {
		*p = serverProj{gen: a.refGen, inletC: a.prof.Inlet.Predict(id, a.refOutside, placeDCLoad), load: math.NaN()}
	}
	if p.load != load {
		p.hotC = a.prof.GPUTemp.PredictHottest(id, p.inletC, load)
		p.load = load
	}
	return p.hotC
}

func (a *allocator) place(st *cluster.State, vm *cluster.VM) (int, bool) {
	estLoad := st.EstimateVMPeakLoad(vm.Spec)
	// Per-generation projections: a candidate VM draws (and blows) more on
	// an H100 server than on an A100 one, so the validator evaluates the
	// placement with the models of each candidate's generation. Uniform
	// fleets index one fit everywhere.
	var newPeakWBy, newPeakCFMBy, idleWBy, idleCFMBy [layout.GPUModelCount]float64
	for m := range newPeakWBy {
		gm := layout.GPUModel(m)
		newPeakWBy[m] = a.prof.PowerFor(gm).Predict(estLoad)
		newPeakCFMBy[m] = a.prof.AirflowFor(gm).Predict(estLoad)
		idleWBy[m] = a.prof.PowerFor(gm).Predict(0)
		idleCFMBy[m] = a.prof.AirflowFor(gm).Predict(0)
	}
	a.refreshRowTemplates(st)
	a.refreshProjections(st)

	// Validator: predicted peak power per row / airflow per aisle with the
	// candidate VM added. With under a week of history the paper assumes
	// peak-load conditions, which is what EstimateVMPeakLoad degrades to.
	// The validator and the row preferences are evaluated once per row: a
	// row is built from one GPU generation (layout.Row), so the
	// post-placement projections are the same for every server in it.
	// rowScore holds each open row's preference score, or rowClosed when
	// the validator rejects the row.
	for _, row := range st.DC.Rows {
		m := row.Servers[0].GPU.Model
		postW := a.rowPeak(row.ID) - idleWBy[m] + newPeakWBy[m]
		if postW > row.ProvPowerW ||
			a.aislePeakCFM[row.Aisle]-idleCFMBy[m]+newPeakCFMBy[m] > st.DC.Aisles[row.Aisle].ProvAirflowCFM {
			a.rowScore[row.ID] = rowClosed
			continue
		}
		// Power preference: avoid concentrating synchronous peaks — prefer
		// rows whose predicted post-placement peak stays low (Insight #3:
		// placement relieves hotspots and smooths power spikes).
		peakFrac := postW / row.ProvPowerW
		var powScore int
		switch {
		case peakFrac <= 0.75:
			powScore = 0
		case peakFrac <= 0.85:
			powScore = 1
		case peakFrac <= 0.95:
			powScore = 2
		default:
			powScore = 3
		}
		// Balance preference (rule 3): prefer rows where this VM kind is
		// under-represented. diff = other-kind count − same-kind count.
		iaas, saas := st.RowMix(row.ID)
		var balScore int
		diff := saas - iaas
		if vm.Spec.Kind == trace.SaaS {
			diff = iaas - saas
		}
		switch {
		case diff > 1: // other kind heavy: adding here improves balance
			balScore = 0
		case diff >= -1: // balanced
			balScore = 1
		default: // already heavy in this kind
			balScore = 2
		}
		a.rowScore[row.ID] = powScore*4 + balScore
	}

	// Predicted hottest-GPU temperature per free server in an open row at
	// the VM's load, under reference hot conditions (placement is a
	// long-horizon choice).
	refOutside := st.OutsideC + 4
	if refOutside < 30 {
		refOutside = 30
	}
	if a.refGen == 0 || refOutside != a.refOutside {
		a.refOutside = refOutside
		a.refGen++
	}
	cands := a.cands[:0]
	for _, id := range st.FreeServers() {
		row := a.srvRow[id]
		if a.rowScore[row] == rowClosed {
			continue
		}
		cands = append(cands, placeCandidate{server: id, predTemp: a.hottest(id, estLoad), row: row})
	}
	a.cands = cands
	if len(cands) == 0 {
		return 0, false
	}

	// Temperature preference (rule 2). The "cold group" for a VM is the set
	// of servers whose projected temperature — at the VM's own predicted
	// load — is within coldBandC of the best achievable. IaaS VMs must land
	// in their cold group, but take its *warmest* member, so the very
	// coolest servers remain available for hotter customers arriving later
	// (hotter VMs project hotter everywhere, hence get the cool hardware).
	// SaaS VMs prefer the warmest server that stays safely below throttle.
	minProj := cands[0].predTemp
	for _, c := range cands[1:] {
		if c.predTemp < minProj {
			minProj = c.predTemp
		}
	}
	throttleC := st.Spec.ThrottleTempC
	inGroup := func(temp float64) bool {
		if vm.Spec.Kind == trace.IaaS {
			return temp <= minProj+coldBandC
		}
		return temp <= throttleC-tempMargin
	}

	best, bestScore := -1, 1<<30
	bestTemp := 0.0
	for _, c := range cands {
		tempScore := 1
		if inGroup(c.predTemp) {
			tempScore = 0
		}
		score := tempScore*16 + a.rowScore[c.row]
		better := score < bestScore
		if score == bestScore {
			if tempScore == 0 {
				// Within the preferred group take the warmest member (both
				// kinds): it conserves the coolest servers.
				better = c.predTemp > bestTemp
			} else {
				// Outside the group, degrade gracefully to the coolest.
				better = c.predTemp < bestTemp
			}
		}
		if better {
			best, bestScore, bestTemp = c.server, score, c.predTemp
		}
	}
	return best, best != -1
}

// coldBandC is the projected-temperature slack defining a VM's cold group.
const coldBandC = 2.0

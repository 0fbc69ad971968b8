package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

// recomputeProjections is the validator's projection from scratch: one pass
// over the fleet in server-ID order, summing each row's projected peak power
// and each aisle's projected peak airflow from 0.
func recomputeProjections(prof *Profiles, st *cluster.State) (rowW, aisleCFM []float64) {
	rowW = make([]float64, len(st.DC.Rows))
	aisleCFM = make([]float64, len(st.DC.Aisles))
	for _, srv := range st.DC.Servers {
		load := 0.0
		if vmID := st.ServerVM[srv.ID]; vmID != -1 {
			load = st.EstimateVMPeakLoad(st.VMs[vmID].Spec)
		}
		rowW[srv.Row] += prof.PowerFor(srv.GPU.Model).Predict(load)
		aisleCFM[srv.Aisle] += prof.AirflowFor(srv.GPU.Model).Predict(load)
	}
	return rowW, aisleCFM
}

// TestAllocatorProjectionsMatchRecompute drives random placement, removal,
// migration and peak-estimate sequences and checks after every step that the
// allocator's incrementally kept row/aisle projections are bit-identical to
// a from-scratch recompute, and that every memoized inlet and hottest-GPU
// projection matches the models.
// The oversubscribed fleet has aisles whose Servers() order is not ID order,
// so it also pins the aisle summation order.
func TestAllocatorProjectionsMatchRecompute(t *testing.T) {
	small := layout.Config{
		Name: "cache-test", Aisles: 4, RacksPerRow: 4, ServersPerRack: 4,
		GPU: layout.A100, Seed: 9, AirflowMargin: 0.03, PowerMargin: 0.03,
	}
	mixed := small
	mixed.MixGPU, mixed.MixFraction = layout.H100, 0.5
	cases := []struct {
		name  string
		cfg   layout.Config
		racks float64
	}{
		{"uniform", small, 0},
		{"mixed", mixed, 0},
		{"oversubscribed", small, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc, err := layout.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dc.AddRacks(tc.racks)
			prof, err := BuildProfiles(dc)
			if err != nil {
				t.Fatal(err)
			}
			w, err := trace.Generate(trace.WorkloadConfig{
				Servers: len(dc.Servers), SaaSFraction: 0.5,
				Duration: 24 * time.Hour, Endpoints: 3, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := cluster.NewState(dc, w)
			entry, ok := st.Profile.Entry(llm.DefaultConfig())
			if !ok {
				t.Fatal("no default-config profile entry")
			}
			checkAllocatorCache(t, prof, st, entry.Goodput, rand.New(rand.NewPCG(3, 5)))
		})
	}
}

func checkAllocatorCache(t *testing.T, prof *Profiles, st *cluster.State, goodput float64, rng *rand.Rand) {
	t.Helper()
	alloc := &allocator{prof: prof}
	maxCustomer := 0
	for _, vm := range st.VMs {
		maxCustomer = max(maxCustomer, vm.Spec.Customer)
	}
	randomVM := func(placed bool) *cluster.VM {
		for range 64 {
			if vm := st.VMs[rng.IntN(len(st.VMs))]; (vm.Server >= 0) == placed {
				return vm
			}
		}
		return nil
	}
	randomFree := func() int {
		free := st.FreeServers()
		if len(free) == 0 {
			return -1
		}
		return free[rng.IntN(len(free))]
	}
	const steps = 600
	for step := range steps {
		op := rng.IntN(6)
		switch op {
		case 0: // placement through the allocator
			st.OutsideC = float64(rng.IntN(4)) * 5
			if vm := randomVM(false); vm != nil {
				if srv, ok := alloc.place(st, vm); ok {
					if err := st.Place(vm.Spec.ID, srv); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 1: // placement on an arbitrary free server
			if vm, srv := randomVM(false), randomFree(); vm != nil && srv >= 0 {
				if err := st.Place(vm.Spec.ID, srv); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // departure
			if vm := randomVM(true); vm != nil {
				st.Remove(vm.Spec.ID)
			}
		case 3: // migration: remove, then place elsewhere
			if vm := randomVM(true); vm != nil {
				st.Remove(vm.Spec.ID)
				if err := st.Place(vm.Spec.ID, randomFree()); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			st.ObserveCustomerLoad(rng.IntN(maxCustomer+1), rng.Float64())
		case 5:
			st.ObserveEndpointDemand(rng.IntN(len(st.Work.Endpoints)), rng.Float64()*1.2*goodput)
		}

		alloc.refreshProjections(st)
		rowW, aisleCFM := recomputeProjections(prof, st)
		for row, want := range rowW {
			if got := alloc.rowPeakW[row]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (op %d): row %d cached peak %v W, recompute %v W", step, op, row, got, want)
			}
		}
		for aisle, want := range aisleCFM {
			if got := alloc.aislePeakCFM[aisle]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d (op %d): aisle %d cached peak %v CFM, recompute %v CFM", step, op, aisle, got, want)
			}
		}
		for id, p := range alloc.srvProj {
			if alloc.refGen == 0 || p.gen != alloc.refGen { // no reference conditions yet, or stale
				continue
			}
			inlet := prof.Inlet.Predict(id, alloc.refOutside, placeDCLoad)
			if p.inletC != inlet {
				t.Fatalf("step %d: server %d memoized inlet %v, model %v", step, id, p.inletC, inlet)
			}
			if hot := prof.GPUTemp.PredictHottest(id, inlet, p.load); !math.IsNaN(p.load) && p.hotC != hot {
				t.Fatalf("step %d: server %d memoized hottest GPU %v at load %v, model %v", step, id, p.hotC, p.load, hot)
			}
		}
	}
	if st.NumFree() == len(st.ServerVM) {
		t.Fatal("sequence never left a VM placed; the check exercised nothing")
	}
}

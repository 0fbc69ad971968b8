// Benchmarks: one per paper table/figure (regenerating the experiment at
// reduced scale under testing.B), plus micro-benchmarks of the hot paths
// (placement, routing, instance stepping, regression fitting) and ablation
// benches for the design choices called out in DESIGN.md §6.
package tapas_test

import (
	"io"
	"math/rand/v2"
	"strconv"
	"testing"
	"time"

	tapas "github.com/tapas-sim/tapas"
	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// benchScale keeps per-iteration cost low; cmd/tapas-bench runs paper scale.
const benchScale = 0.1

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := tapas.RunExperiment(id, benchScale, 42, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per table/figure -------------------------------------------

func BenchmarkTable1ConfigImpact(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig1LayoutHeatmap(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2InletTimeline(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3InletRegression(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4SpatialDistribution(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig5LoadRegression(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6GPUTimeline(b *testing.B)         { benchExperiment(b, "fig6") }
func BenchmarkFig7GPUTempRegression(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8GPUHeterogeneity(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9TempCDF(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10RowPower(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11RandomPlacements(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12TraceCDFs(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13DiurnalPatterns(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14PredictionError(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15PhaseProfiles(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16ParetoFrontier(b *testing.B)     { benchExperiment(b, "fig16") }
func BenchmarkFig18RealCluster(b *testing.B)        { benchExperiment(b, "fig18") }
func BenchmarkFig19WeekSimulation(b *testing.B)     { benchExperiment(b, "fig19") }
func BenchmarkFig20Ablation(b *testing.B)           { benchExperiment(b, "fig20") }
func BenchmarkFig21Oversubscription(b *testing.B)   { benchExperiment(b, "fig21") }
func BenchmarkTable2Emergencies(b *testing.B)       { benchExperiment(b, "table2") }

// --- micro-benchmarks of hot paths ----------------------------------------

func benchState(b *testing.B) *cluster.State {
	b.Helper()
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: time.Hour, Endpoints: 3, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cluster.NewState(dc, w)
}

// BenchmarkPlace prices the VM-placement layer on its own: each iteration
// fills a run's initial (empty, history-seeded) fleet with the VMs that
// arrive in the first tick, through TAPAS's Place and the state's Place, the
// calls the engine's placement phase makes. ns/place divides the fill by the
// VMs placed.
func BenchmarkPlace(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(strconv.FormatFloat(scale, 'g', -1, 64)+"x", func(b *testing.B) {
			sc := sim.DefaultScenario()
			sc.Layout.FleetScale = scale
			dc, err := layout.New(sc.Layout)
			if err != nil {
				b.Fatal(err)
			}
			sc.Workload.Servers = len(dc.Servers)
			sc.Workload.Duration = time.Hour
			cs, err := sim.Compile(sc)
			if err != nil {
				b.Fatal(err)
			}
			// Fit the offline profiles outside the timer.
			if _, err := core.ProfilesFor(cs.DC); err != nil {
				b.Fatal(err)
			}
			var arrivals []int
			for i := range cs.Workload.VMs {
				if cs.Workload.VMs[i].Active(0) {
					arrivals = append(arrivals, i)
				}
			}
			placed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := cs.NewState()
				pol := core.NewFull()
				if err := pol.Init(st); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, id := range arrivals {
					if srv, ok := pol.Place(st, st.VMs[id]); ok {
						if err := st.Place(id, srv); err != nil {
							b.Fatal(err)
						}
						placed++
					}
				}
			}
			if placed > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(placed), "ns/place")
			}
		})
	}
}

func BenchmarkTAPASRouting(b *testing.B) {
	st := benchState(b)
	pol := core.NewFull()
	if err := pol.Init(st); err != nil {
		b.Fatal(err)
	}
	placed := 0
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && placed < 20 {
			if err := st.Place(i, placed); err != nil {
				b.Fatal(err)
			}
			placed++
		}
	}
	st.Tick = time.Minute
	ep := st.Work.Endpoints[0]
	b.ReportAllocs() // steady-state routing must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Route(st, ep, 1e6, 2.5e5)
	}
}

func BenchmarkInstanceStep(b *testing.B) {
	spec := layout.Spec(layout.A100)
	w := llm.DefaultWorkload()
	in := llm.NewInstance(spec, llm.DefaultConfig(), w, llm.ComputeSLOs(spec, llm.DefaultConfig(), w))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.EnqueueBulk(1024, 256)
		in.Step(time.Minute)
	}
}

// BenchmarkCompileScenario measures building the run-invariant artifacts
// (layout, workload trace, weather, LLM profile, thermal coefficient tables,
// seeded history) that experiment grids share across runs.
func BenchmarkCompileScenario(b *testing.B) {
	sc := sim.SmallScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Compile(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledScenarioRun measures a full run from an existing
// compilation — the marginal cost of each additional policy evaluated over a
// shared scenario (contrast with Run, which compiles per call).
func BenchmarkCompiledScenarioRun(b *testing.B) {
	sc := sim.SmallScenario()
	sc.Duration = 20 * time.Minute
	sc.Workload.Duration = sc.Duration
	cs, err := sim.Compile(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Run(core.NewFull()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTick(b *testing.B) {
	// Cost of one simulated minute across 80 servers under full TAPAS.
	sc := sim.SmallScenario()
	benchTicks(b, sc, core.NewFull())
}

// BenchmarkPowerGovTick measures the same per-tick cost under the
// closed-loop power governor: full TAPAS plus a per-endpoint monitor →
// recommender → tuner pass, with a budget tight enough that the controller
// actually tunes frequency caps instead of idling at scale 1.
func BenchmarkPowerGovTick(b *testing.B) {
	sc := sim.SmallScenario()
	sc.PowerGov = sim.PowerGov{BudgetFrac: 0.55}
	benchTicks(b, sc, core.NewPowerGov(false))
}

// benchTicks runs sc for b.N one-minute ticks as one simulation, compiling
// outside the timer so ns/op is the per-tick cost, not compile time.
func benchTicks(b *testing.B, sc sim.Scenario, pol sim.Policy) {
	b.Helper()
	sc.Duration = time.Duration(b.N) * time.Minute
	sc.Workload.Duration = sc.Duration
	cs, err := sim.Compile(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs() // per-tick steady state is allocation-free (setup amortizes)
	b.ResetTimer()
	if _, err := cs.Run(pol); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOfflineProfiling(b *testing.B) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildProfiles(dc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPiecewiseSurfaceFit(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 40
		ys[i] = rng.Float64()
		zs[i] = 18 + 0.5*xs[i] + 2*ys[i] + rng.NormFloat64()*0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitSurface(xs, ys, zs, []float64{15, 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSimHour(b *testing.B) {
	spec := layout.Spec(layout.A100)
	w := llm.DefaultWorkload()
	slos := llm.ComputeSLOs(spec, llm.DefaultConfig(), w)
	rng := rand.New(rand.NewPCG(3, 4))
	reqs := make([]llm.Request, 500)
	at := time.Duration(0)
	for i := range reqs {
		reqs[i] = llm.Request{
			ID: int64(i), Customer: rng.IntN(100),
			PromptTokens: 512 + rng.IntN(1024), OutputTokens: 64 + rng.IntN(256),
			Arrival: at,
		}
		at += time.Duration(rng.Float64() * float64(time.Second))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := llm.NewEngineSim(spec, llm.DefaultConfig())
		e.Run(reqs, time.Hour, slos)
	}
}

// --- compile cache ---------------------------------------------------------

// BenchmarkCompileCacheMiss prices the cache's cold path: a fresh cache per
// iteration, so every Compile pays keying plus the full artifact build.
// Contrast with BenchmarkCompileScenario (no cache) for the keying overhead
// and with BenchmarkCompileCacheHit for the warm speedup.
func BenchmarkCompileCacheMiss(b *testing.B) {
	sc := sim.SmallScenario()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewCompileCache(0).Compile(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileCacheHit prices the warm path: one cache, one cold fill,
// then every Compile is a level-1 hit returning a runtime variant.
func BenchmarkCompileCacheHit(b *testing.B) {
	sc := sim.SmallScenario()
	cache := sim.NewCompileCache(0)
	if _, err := cache.Compile(sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Compile(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign is a climate sweep whose compile work dominates its runs:
// three regions over the small fleet, one short run each — the shape the
// compile cache targets.
func benchCampaign(b *testing.B) *scenario.Campaign {
	b.Helper()
	spec, err := scenario.Parse([]byte(`{
	  "name": "bench-climate",
	  "layout": {"preset": "small"},
	  "duration": "10m",
	  "policies": ["baseline"],
	  "axes": [{"param": "region", "values": ["hot", "temperate", "cool"]}]
	}`))
	if err != nil {
		b.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkCampaignColdCache reruns the campaign against a fresh cache each
// iteration: every grid point compiles (level 2 still shares the layout and
// workload across the climate axis within one run).
func BenchmarkCampaignColdCache(b *testing.B) {
	c := benchCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(scenario.RunOptions{Cache: sim.NewCompileCache(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignWarmCache reruns the same campaign through one shared
// cache: after the warm-up fill, every rerun serves all compilations from
// cache — the daemon's repeated-what-if steady state. The cold/warm ratio is
// the cache's campaign-level speedup on compile work.
func BenchmarkCampaignWarmCache(b *testing.B) {
	c := benchCampaign(b)
	cache := sim.NewCompileCache(0)
	if _, err := c.Run(scenario.RunOptions{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(scenario.RunOptions{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hyperscale scale axis -------------------------------------------------

// hyperscaleScenario provisions the paper's fleet at 10x aisles (~10k
// servers) and runs one simulated day. Dirty-set skipping makes steady-state
// ticks cheap, so this mostly prices initial placement plus a day of VM
// churn at scale; the bytes/op recorded in the bench baseline is the memory
// budget for a 10x fleet-day. scripts/bench.sh always runs the Hyperscale
// benches at one iteration regardless of BENCHTIME.
func hyperscaleScenario(b *testing.B) sim.Scenario {
	b.Helper()
	sc := sim.DefaultScenario()
	sc.Layout.FleetScale = 10
	sc.Duration = 24 * time.Hour
	sc.Workload.Duration = sc.Duration
	dc, err := layout.New(sc.Layout)
	if err != nil {
		b.Fatal(err)
	}
	sc.Workload.Servers = len(dc.Servers)
	// Warm the memoized offline profiles for the 10x layout so neither
	// variant's bytes/op carries the one-time profile fit — whichever
	// Hyperscale bench ran first would otherwise report ~50x the bytes of
	// the second, making the recorded budget depend on bench ordering.
	if _, err := core.ProfilesFor(dc); err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchHyperscale(b *testing.B, shards int) {
	sc := hyperscaleScenario(b)
	sc.Shards = shards
	cs, err := sim.Compile(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Run(core.NewFull()); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial pins the scale axis itself; Sharded runs the same fleet-day on a
// GOMAXPROCS worker pool (byte-identical results — see internal/sim's shard
// tests — so the delta is pure tick-kernel parallelism).
func BenchmarkHyperscaleDaySerial(b *testing.B)  { benchHyperscale(b, 1) }
func BenchmarkHyperscaleDaySharded(b *testing.B) { benchHyperscale(b, -1) }

// --- ablation benches for DESIGN.md §6 design choices ----------------------

// BenchmarkAblationRouterRiskFilter compares TAPAS with and without the
// Route lever (the risk filter + headroom spreading) on the same scenario,
// reporting the peak-power delta as a custom metric.
func BenchmarkAblationRouterRiskFilter(b *testing.B) {
	sc := sim.SmallScenario()
	for i := 0; i < b.N; i++ {
		withRoute, err := sim.Run(sc, core.New(core.Options{Place: true, Route: true, Config: true}))
		if err != nil {
			b.Fatal(err)
		}
		without, err := sim.Run(sc, core.New(core.Options{Place: true, Config: true}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-withRoute.PeakPower()/without.PeakPower())*100, "peak%saved")
	}
}

// BenchmarkAblationTemplatePercentile measures prediction conservatism of
// P50 vs P99 templates (underprediction rate, Fig. 14 design choice).
func BenchmarkAblationTemplatePercentile(b *testing.B) {
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: 100, SaaSFraction: 0, Duration: 14 * 24 * time.Hour, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	var vm trace.VMSpec
	for _, v := range w.VMs {
		if v.Kind == trace.IaaS {
			vm = v
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 14 * 24 * 6
		series := make([]float64, total)
		for k := range series {
			series[k] = 1000 + 4000*vm.Load.At(time.Duration(k)*10*time.Minute)
		}
		week := total / 2
		for _, pct := range []float64{50, 99} {
			tpl, err := power.BuildTemplate(series[:week], 6, pct)
			if err != nil {
				b.Fatal(err)
			}
			errs := tpl.PredictionErrors(series[week:], 6)
			under := 0
			for _, e := range errs {
				if e < 0 {
					under++
				}
			}
			b.ReportMetric(float64(under)/float64(len(errs))*100, "P"+strconv.Itoa(int(pct))+"-under%")
		}
	}
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/internal/sim"
)

// host is the context every result is recorded with.
type host struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	LoadAvgStart string `json:"loadavg_start"`
	LoadAvgEnd   string `json:"loadavg_end"`
}

func hostContext() *host {
	return &host{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		LoadAvgStart: loadAvg(),
	}
}

// loadAvg returns the 1, 5 and 15 minute load averages ("" where the host
// does not expose /proc/loadavg).
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, 0 where
// /proc/self/status is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// rssSampleEvery is how often the timed phase's resident set is sampled.
const rssSampleEvery = 5 * time.Millisecond

// sampleRSS records the largest resident set (MB) seen into *peak until the
// returned stop function is called; stop returns once sampling has ended
// and the last sample is in.
func sampleRSS(peak *float64) (stop func()) {
	done := make(chan struct{})
	ended := make(chan struct{})
	sample := func() { *peak = max(*peak, rssMB()) }
	sample()
	go func() {
		defer close(ended)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() {
		close(done)
		<-ended
	}
}

// rssMB returns the current resident set in MB, 0 where /proc/self/statm
// is unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// modelCounters sums simulated (not host) statistics over runs. They are
// exact: a change that only speeds the simulator up must leave them alone.
func modelCounters(runs []*sim.Result) map[string]float64 {
	var srvTicks, throttle, capEv, admitted, shed, completed, violated int
	var energy, tokens float64
	for _, r := range runs {
		if r == nil {
			continue
		}
		srvTicks += r.ServerTicks
		throttle += r.ThermalThrottleSrvTicks
		capEv += r.CapEvents()
		for ep := 0; ep < r.RequestEndpoints(); ep++ {
			admitted += r.RequestsAdmitted(ep)
			shed += r.RequestsShed(ep)
			completed += r.RequestsCompleted(ep)
			violated += sumAt(r.ReqViolated, ep)
		}
		for ep := range r.EndpointEnergyJ {
			energy += r.EndpointEnergyJ[ep]
			tokens += r.EndpointServedTokens[ep]
		}
	}
	m := map[string]float64{
		"model.server_ticks":       float64(srvTicks),
		"model.throttle_srv_ticks": float64(throttle),
		"model.cap_events":         float64(capEv),
		"model.requests_admitted":  float64(admitted),
		"model.requests_shed":      float64(shed),
		"model.requests_completed": float64(completed),
		"model.slo_attainment_pct": 0,
		"model.energy_per_token_j": 0,
	}
	if completed > 0 {
		m["model.slo_attainment_pct"] = 100 * float64(completed-violated) / float64(completed)
	}
	if tokens > 0 {
		m["model.energy_per_token_j"] = energy / tokens
	}
	return m
}

func sumAt(xs []int, i int) int {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

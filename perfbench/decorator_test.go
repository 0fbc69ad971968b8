package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/scenario"
)

// policyNames are the spec policies whose extension sets the decorator must
// reproduce.
var policyNames = []string{"baseline", "tapas", "slo", "slo-edf", "powergov", "powergov-energy"}

// Every subset of the extensions gets a type implementing exactly it.
func TestCombineImplementsExactlyTheMask(t *testing.T) {
	tp := &tracedPolicy{inner: core.NewBaseline()}
	for m := 0; m < 1<<6; m++ {
		p := combine(uint8(m), tp, initHook{p: tp}, routerHook{p: tp}, admitterHook{p: tp},
			schedulerHook{}, sloTunableHook{}, govTunableHook{})
		if got := extMask(p); got != uint8(m) {
			t.Errorf("combine(%06b) implements %06b", m, got)
		}
	}
}

func TestWrapKeepsEachPolicysExtensions(t *testing.T) {
	// The spec policies span three extension sets: baseline and tapas are
	// both core.TAPAS, the SLO family adds admission, queue discipline and
	// tuning, the governors add their own tuning.
	want := map[string]uint8{
		"baseline":        mInit | mRouter,
		"tapas":           mInit | mRouter,
		"slo":             mInit | mRouter | mAdmitter | mScheduler | mSLOTunable,
		"slo-edf":         mInit | mRouter | mAdmitter | mScheduler | mSLOTunable,
		"powergov":        mInit | mRouter | mGovTunable,
		"powergov-energy": mInit | mRouter | mGovTunable,
	}
	tr := newTracer()
	for _, name := range policyNames {
		pol, err := scenario.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		p := pol.New()
		if got := extMask(p); got != want[name] {
			t.Errorf("%s implements %06b, the test expects %06b", name, got, want[name])
		}
		w := tr.wrap(p)
		if got := extMask(w); got != extMask(p) {
			t.Errorf("%s: wrapped policy implements %06b, the policy %06b", name, got, extMask(p))
		}
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapped name %q, want %q", name, w.Name(), p.Name())
		}
	}
}

// A traced campaign (every policy decorated, every tick observed) renders
// the same bytes as an untraced one, in request-level replay where the
// optional extensions all take effect, and in binned mode.
func TestTracedReportsAreByteIdentical(t *testing.T) {
	for _, file := range []string{"slo-replay.json", "replay-pinned.json"} {
		spec, err := scenario.Load(filepath.Join("..", "examples", "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		spec.Policies = policyNames
		camp, err := spec.Campaign(0)
		if err != nil {
			t.Fatal(err)
		}
		render := func(c *scenario.Campaign) []byte {
			res, err := c.Run(scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := res.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		plain := render(camp)
		tr := newTracer()
		traced := render(tracedCampaign(camp, tr))
		if !bytes.Equal(plain, traced) {
			t.Errorf("%s: traced report differs:\n--- untraced ---\n%s--- traced ---\n%s", file, plain, traced)
		}
		tot := tr.reduce()
		if tot.calls[lTick] == 0 || tot.calls[lConfigure] == 0 {
			t.Errorf("%s: the traced run recorded %d ticks and %d configure calls", file, tot.calls[lTick], tot.calls[lConfigure])
		}
		if file == "slo-replay.json" && (tot.calls[lAdmit] == 0 || tot.calls[lRouteReq] == 0) {
			t.Errorf("%s: the traced run recorded %d admit and %d route_req calls", file, tot.calls[lAdmit], tot.calls[lRouteReq])
		}
	}
}

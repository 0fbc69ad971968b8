package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The 90th percentile is reported only once ten samples lie beyond it,
// which takes 100 samples.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	if _, ok := tailPercentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples reported, but only 9 lie beyond it")
	}
	p, ok := tailPercentile(seq(100), 90)
	if !ok || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", p, ok)
	}
	p, ok = tailPercentile(seq(1000), 90)
	if !ok || p != 900 {
		t.Errorf("p90 of 1..1000 = %v, %v; want 900, true", p, ok)
	}
	if _, ok := tailPercentile(nil, 90); ok {
		t.Error("p90 of no samples reported")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 70}}, 70},
		{"overlapping", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"nested", []span{{start: 10, end: 50}, {start: 20, end: 30}}, 60},
		{"unsorted nested and overlapping", []span{{start: 60, end: 80}, {start: 20, end: 30}, {start: 10, end: 50}, {start: 70, end: 90}}, 30},
		{"clipped to the parent", []span{{start: -20, end: 10}, {start: 90, end: 130}}, 80},
		{"outside the parent", []span{{start: 100, end: 120}, {start: -5, end: 0}}, 100},
		{"covering the parent", []span{{start: -1, end: 101}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// reduce charges every tick its duration minus the hook calls inside it, and
// hooks never leak into the next tick.
func TestReduceKernelSelfTime(t *testing.T) {
	tr := newTracer()
	l := tr.newLog()
	l.servers = 10
	l.spans = []span{
		{layer: lInit, start: 0, end: 5},
		{layer: lPlace, start: 6, end: 10},
		{layer: lConfigure, start: 12, end: 20},
		{layer: lCapRow, start: 22, end: 24},
		{layer: lTick, start: 5, end: 30}, // 25 long, 14 in hooks
		{layer: lRoute, start: 31, end: 35},
		{layer: lTick, start: 30, end: 40}, // 10 long, 4 in hooks
	}
	tot := tr.reduce()
	if tot.kernelSelf != 11+6 {
		t.Errorf("kernel self = %d, want 17", tot.kernelSelf)
	}
	if tot.serverTicks != 20 || tot.calls[lTick] != 2 {
		t.Errorf("server ticks %d over %d ticks, want 20 over 2", tot.serverTicks, tot.calls[lTick])
	}
	if tot.busy[lConfigure] != 8 || tot.calls[lPlace] != 1 {
		t.Errorf("configure busy %d, place calls %d; want 8, 1", tot.busy[lConfigure], tot.calls[lPlace])
	}
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: fewer make the percentile one or two unlucky samples.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle samples for an
// even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether at least minBeyond samples lie strictly above the rank it was
// read at. With n samples, the p-th percentile sits at rank ⌈p·n/100⌉, so
// n − rank samples lie beyond it: the 90th percentile needs n ≥ 100.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sortedCopy(xs)
	return s[rank-1], n-rank >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// selfTime returns the part of parent's interval that no child covers:
// parent's duration minus the union of the children's intervals clipped to
// it. Children may overlap each other (concurrent work) or nest (a child of
// a child); covered time is counted once either way.
func selfTime(parent span, children []span) int64 {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			iv = append(iv, span{start: s, end: e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var covered, curS, curE int64
	for i, c := range iv {
		if i == 0 || c.start > curE {
			covered += curE - curS
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	covered += curE - curS
	return parent.end - parent.start - covered
}

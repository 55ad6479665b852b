package main

import (
	"math"
	"sort"
)

// summary is what the ledger keeps of one metric's repetitions.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(samples),
		Samples: append([]float64(nil), samples...)}
}

// constant is the summary of a value that was the same n times over (a
// virtual result), or that exists once per run.
func constant(unit string, v float64, n int) summary {
	return summary{Unit: unit, Median: v, Q1: v, Q3: v, N: n}
}

// iqrShare is the distance between the quartiles as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) — the exclusive method, which is what
// the acceptance driver computes its spreads with. One value is its own
// quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	switch len(x) {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	const n = 4
	ld := len(x)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank p-quantile (p in (0,1]) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// Verdicts of one compared metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b against base a for one end-to-end metric.
//
// A virtual metric is a pure function of the seed, so any difference is a
// regression whichever way it points. A host metric is unresolved when
// either side's quartile distance is wider than the allowance (the run
// cannot see a change of that size), worse when b's median is past the
// allowance, better when it improved by more than both sides' spread.
// allowance is bound×a.Median, except that floor (in the metric's unit)
// replaces it when larger: set-up times of tens of milliseconds would
// otherwise trip on scheduler jitter.
func judge(a, b summary, lowerIsBetter, exact bool, bound, floor float64) string {
	if exact {
		if a.Median == b.Median && a.Q1 == b.Q1 && a.Q3 == b.Q3 {
			return verdictWithin
		}
		return verdictWorse
	}
	allowance := math.Max(bound*math.Abs(a.Median), floor)
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1)
	if spread > allowance {
		return verdictUnresolved
	}
	worsening := b.Median - a.Median
	if !lowerIsBetter {
		worsening = -worsening
	}
	switch {
	case worsening > allowance:
		return verdictWorse
	case -worsening > spread:
		return verdictBetter
	}
	return verdictWithin
}

// Package stats provides the small statistical toolkit used across the
// simulator: counters, running means, ratio helpers, geometric means for
// speedup aggregation, and the correlation coefficient used by the
// simulator-calibration experiment (paper Fig. 7).
package stats

import "math"

// Mean accumulates a running arithmetic mean without storing samples.
type Mean struct {
	n   uint64
	sum float64
}

// Add records one sample.
func (m *Mean) Add(x float64) { m.n++; m.sum += x }

// N returns the number of samples.
func (m *Mean) N() uint64 { return m.n }

// Sum returns the sample total.
func (m *Mean) Sum() float64 { return m.sum }

// Value returns the mean, or 0 when no samples were recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// the way speedup aggregations conventionally do. It returns 0 when no
// usable samples exist.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Correlation returns the Pearson correlation coefficient of paired
// samples. It returns 0 if fewer than two pairs exist or either series is
// constant.
func Correlation(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// MeanAbsRelError returns mean(|x-y| / y) over pairs with y != 0, the
// "average absolute error" metric the paper reports for its simulator.
func MeanAbsRelError(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var m Mean
	for i := 0; i < n; i++ {
		if ys[i] != 0 {
			m.Add(math.Abs(xs[i]-ys[i]) / math.Abs(ys[i]))
		}
	}
	return m.Value()
}

// Ratio returns num/den, or 0 when den is 0, a convenience for rate
// reporting from raw counters.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

package stats

import "math"

// Pearson returns the Pearson correlation coefficient of the paired
// samples xs and ys. It returns 0 when the slices differ in length, hold
// fewer than two pairs, or either side has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
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

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LaggedPearson returns the Pearson correlation of xs[i] with ys[i+lag].
// A positive lag means ys trails xs (ys reacts `lag` steps later), which
// is the sense used for the paper's "time-lagged increase of temperature
// and ozone" example. Out-of-range pairs are dropped. It returns 0 when
// fewer than two pairs overlap.
func LaggedPearson(xs, ys []float64, lag int) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	var a, b []float64
	for i := 0; i < n; i++ {
		j := i + lag
		if j < 0 || j >= len(ys) {
			continue
		}
		a = append(a, xs[i])
		b = append(b, ys[j])
	}
	return Pearson(a, b)
}

// BestLag scans lags in [-maxLag, maxLag] and returns the lag with the
// highest absolute lagged Pearson correlation, together with that
// correlation. Used by the environmental experiment to verify that the
// generator plants the 2-hour ozone lag the paper's example query hunts
// for.
func BestLag(xs, ys []float64, maxLag int) (lag int, corr float64) {
	best := 0.0
	bestLag := 0
	for l := -maxLag; l <= maxLag; l++ {
		c := LaggedPearson(xs, ys, l)
		if math.Abs(c) > math.Abs(best) {
			best = c
			bestLag = l
		}
	}
	return bestLag, best
}

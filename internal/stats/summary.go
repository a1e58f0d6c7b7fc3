package stats

import "math"

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64 // population standard deviation
	Median float64
}

// Summarize computes a Summary of xs. NaN values are skipped; if all
// values are NaN (or xs is empty) the zero Summary with N == 0 is
// returned.
func Summarize(xs []float64) Summary {
	var s Summary
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum, sumSq float64
	clean := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		clean = append(clean, x)
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
		sumSq += x * x
	}
	s.N = len(clean)
	if s.N == 0 {
		return Summary{}
	}
	n := float64(s.N)
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0 // numerical noise
	}
	s.Std = math.Sqrt(variance)
	s.Median, _ = Quantile(clean, 0.5)
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is an equal-width binning of a sample, used for density
// visualization (figure 2 of the paper) and for the reduction-heuristic
// diagnostics.
type Histogram struct {
	Min    float64
	Max    float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into `bins` equal-width buckets spanning
// [min(xs), max(xs)]. NaN values are skipped. A histogram with zero total
// is returned for an empty (or all-NaN) sample.
func NewHistogram(xs []float64, bins int) Histogram {
	if bins < 1 {
		bins = 1
	}
	h := Histogram{Counts: make([]int, bins)}
	first := true
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if first {
			h.Min, h.Max = x, x
			first = false
			continue
		}
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	if first {
		return h
	}
	width := h.Max - h.Min
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		var idx int
		if width > 0 {
			idx = int(float64(bins) * (x - h.Min) / width)
		}
		if idx >= bins {
			idx = bins - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Counts[idx]++
		h.Total++
	}
	return h
}

// ASCII renders the histogram as a vertical-bar string, height rows tall.
// It is the text stand-in for the density plots of figure 2.
func (h Histogram) ASCII(height int) string {
	if height < 1 {
		height = 1
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	for row := height; row >= 1; row-- {
		cut := float64(row) / float64(height) * float64(maxCount)
		for _, c := range h.Counts {
			if float64(c) >= cut {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "min=%.3g max=%.3g n=%d\n", h.Min, h.Max, h.Total)
	return b.String()
}

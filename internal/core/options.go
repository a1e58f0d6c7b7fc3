// Package core is the VisDB engine — the paper's primary contribution.
// It executes a query not as a boolean filter but as a relevance
// ranking: per-predicate distances (section 3), reduction-first
// normalization, weighted AND/OR combination (section 5.2), α-quantile /
// gap-heuristic display reduction (section 5.1), and pixel-oriented
// window construction with the spiral or 2D arrangements and the VisDB
// colormap (section 4.2). One overall-result window plus one window per
// top-level selection predicate are produced, positionally aligned so
// "for every data item the colors representing the distances for the
// different selection predicates are at the same relative position in
// each of the windows".
package core

import (
	"repro/internal/colormap"
	"repro/internal/relevance"
)

// ArrangementKind selects how displayed items map to window cells.
type ArrangementKind int

const (
	// ArrangeSpiral is the default rectangular-spiral arrangement of
	// figure 1a.
	ArrangeSpiral ArrangementKind = iota
	// Arrange2D is the signed-distance quadrant arrangement of
	// figure 1b; it requires AxisX and AxisY options naming two
	// predicates' attributes.
	Arrange2D
)

// Options configures an Engine. The zero value is usable: a 128×128 item
// grid per window, 1 pixel per item, the 256-level VisDB colormap,
// weight-normalized combination and automatic display reduction.
type Options struct {
	// GridW and GridH are the per-window item grid dimensions.
	GridW, GridH int
	// PixelsPerItem is 1, 4 or 16 (section 4.2); it scales the pixel
	// block each item occupies when windows are rendered.
	PixelsPerItem int
	// Map is the colormap; nil selects colormap.VisDB(256).
	Map *colormap.Map
	// Mode selects the combination formulas (section 5.2).
	Mode relevance.CombineMode
	// And selects the AND-node combiner: the default weighted
	// arithmetic mean, or the Euclidean/Lp alternatives section 5.2
	// offers for special applications.
	And relevance.ANDCombiner
	// LpP is the exponent for the ANDLp combiner.
	LpP float64
	// NaiveNormalize disables reduction-first normalization (ablation
	// A1).
	NaiveNormalize bool
	// MaxPairs caps the materialized cross product of multi-table
	// queries; 0 means 1<<20.
	MaxPairs int
	// Arrangement picks the window arrangement.
	Arrangement ArrangementKind
	// AxisX and AxisY name the attributes whose signed distances drive
	// the 2D arrangement.
	AxisX, AxisY string
	// PercentDisplayed, when > 0, fixes the fraction of items displayed
	// (the user's slider in figure 5); otherwise the section 5.1
	// heuristics decide.
	PercentDisplayed float64
	// FullSort ranks every item with a full O(n log n) sort instead of
	// selecting only the display budget. The displayed result is
	// identical either way; full sorting keeps the ranking (TopK, the
	// spiral's Result.Order) exact for all n items, which the A-series
	// ablations and exact quantile statistics rely on.
	FullSort bool
	// NoInteriorSketch disables interior reuse on cached runs (the
	// ablation/benchmark baseline): no interior node's raw combined
	// vector is looked up or stored, so every one re-runs its fused
	// combine pass and re-selects its normalization range. Results are
	// bit-identical either way — reuse only changes where the warm-rerun
	// time goes (see StageTimings.SketchHits). The name predates the
	// code plane that replaced the sketch.
	NoInteriorSketch bool
	// NoSegmentStats disables the segment-stats pushdown of a leaf's
	// column read (the pushdown's reference): range predicates read every
	// storage segment even when the column's per-segment stats prove a
	// segment's rows all score distance zero. Results are bit-identical
	// either way — the pushdown only skips reads (for a file-backed
	// column, decodes) whose outcome is already known (see
	// StageTimings.SegsSkipped).
	NoSegmentStats bool
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.GridW <= 0 {
		o.GridW = 128
	}
	if o.GridH <= 0 {
		o.GridH = 128
	}
	switch o.PixelsPerItem {
	case 1, 4, 16:
	default:
		o.PixelsPerItem = 1
	}
	if o.Map == nil {
		o.Map = colormap.VisDB(colormap.DefaultLevels)
	}
	if o.MaxPairs <= 0 {
		o.MaxPairs = 1 << 20
	}
	if o.PercentDisplayed < 0 {
		o.PercentDisplayed = 0
	}
	if o.PercentDisplayed > 1 {
		o.PercentDisplayed = 1
	}
	return o
}

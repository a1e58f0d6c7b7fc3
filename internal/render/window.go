package render

import (
	"repro/internal/arrange"
	"repro/internal/colormap"
)

// Window is one visualization window: a grid of item cells, each cell
// occupying a block of Block×Block pixels (the 1/4/16 pixels per data
// item of section 4.2). The zero cell color is the background.
type Window struct {
	Title string
	GridW int
	GridH int
	Block int
	cells []colormap.RGB
	set   []bool
	// highlights marks cells to overlay with the highlight color ring
	// (tuple selection, section 4.3).
	highlights map[arrange.Point]bool
}

// NewWindow creates an empty window with a gridW×gridH item grid and the
// given pixel-block side (1, 2 or 4).
func NewWindow(title string, gridW, gridH, block int) *Window {
	if gridW < 0 {
		gridW = 0
	}
	if gridH < 0 {
		gridH = 0
	}
	if block < 1 {
		block = 1
	}
	return &Window{
		Title:      title,
		GridW:      gridW,
		GridH:      gridH,
		Block:      block,
		cells:      make([]colormap.RGB, gridW*gridH),
		set:        make([]bool, gridW*gridH),
		highlights: make(map[arrange.Point]bool),
	}
}

// Capacity returns the number of item cells.
func (w *Window) Capacity() int { return w.GridW * w.GridH }

// SetCell colors the item cell at p; out-of-grid cells are ignored, as
// is the Unplaced sentinel.
func (w *Window) SetCell(p arrange.Point, c colormap.RGB) {
	if p.X < 0 || p.X >= w.GridW || p.Y < 0 || p.Y >= w.GridH {
		return
	}
	w.cells[p.Y*w.GridW+p.X] = c
	w.set[p.Y*w.GridW+p.X] = true
}

// CellAt returns the color of cell p and whether it was explicitly set.
func (w *Window) CellAt(p arrange.Point) (colormap.RGB, bool) {
	if p.X < 0 || p.X >= w.GridW || p.Y < 0 || p.Y >= w.GridH {
		return colormap.RGB{}, false
	}
	return w.cells[p.Y*w.GridW+p.X], w.set[p.Y*w.GridW+p.X]
}

// Highlight marks cell p for highlight overlay.
func (w *Window) Highlight(p arrange.Point) { w.highlights[p] = true }

// PixelSize returns the window's pixel dimensions (excluding title bar).
func (w *Window) PixelSize() (pw, ph int) {
	return w.GridW * w.Block, w.GridH * w.Block
}

// Image renders the window body (no title) to pixels, expanding each
// cell to its block and overlaying highlights as white blocks.
func (w *Window) Image() *Image {
	pw, ph := w.PixelSize()
	im := NewImage(pw, ph)
	for y := 0; y < w.GridH; y++ {
		for x := 0; x < w.GridW; x++ {
			i := y*w.GridW + x
			if !w.set[i] {
				continue
			}
			im.FillRect(x*w.Block, y*w.Block, w.Block, w.Block, w.cells[i])
		}
	}
	for p := range w.highlights {
		im.FillRect(p.X*w.Block, p.Y*w.Block, w.Block, w.Block, colormap.HighlightColor)
	}
	return im
}

// frameColor is the border drawn around composed windows.
var frameColor = colormap.C(90, 90, 90)

// titleColor is the color of window titles and labels.
var titleColor = colormap.C(220, 220, 220)

// Compose lays windows out in a grid with cols columns and pad pixels of
// spacing, each window topped by a title bar, and returns the combined
// image — the "Visualization part" of the query visualization and
// modification window (figures 4 and 5).
func Compose(windows []*Window, cols, pad int) *Image {
	if len(windows) == 0 {
		return NewImage(0, 0)
	}
	if cols < 1 {
		cols = 1
	}
	if pad < 0 {
		pad = 0
	}
	rows := (len(windows) + cols - 1) / cols
	// Column widths and row heights accommodate the largest member.
	colW := make([]int, cols)
	rowH := make([]int, rows)
	const titleBar = TextHeight + 3
	for i, w := range windows {
		pw, ph := w.PixelSize()
		if tw := TextWidth(w.Title); tw > pw {
			pw = tw
		}
		c, r := i%cols, i/cols
		if pw+2 > colW[c] {
			colW[c] = pw + 2
		}
		if ph+titleBar+2 > rowH[r] {
			rowH[r] = ph + titleBar + 2
		}
	}
	totalW := pad
	for _, cw := range colW {
		totalW += cw + pad
	}
	totalH := pad
	for _, rh := range rowH {
		totalH += rh + pad
	}
	out := NewImage(totalW, totalH)
	y := pad
	for r := 0; r < rows; r++ {
		x := pad
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if i >= len(windows) {
				break
			}
			w := windows[i]
			out.DrawText(x+1, y+1, w.Title, titleColor)
			body := w.Image()
			out.Rect(x, y+titleBar, body.W+2, body.H+2, frameColor)
			out.Blit(body, x+1, y+titleBar+1)
			x += colW[c] + pad
		}
		y += rowH[r] + pad
	}
	return out
}

// SliderKind selects the slider variant of section 4.3: "Different
// types of sliders are provided for different datatypes and different
// distance functions."
type SliderKind int

const (
	// SliderContinuous is the default numeric range slider.
	SliderContinuous SliderKind = iota
	// SliderDiscrete reflects "the discrete nature of the data by
	// allowing only discrete movements of the slider" — tick marks.
	SliderDiscrete
	// SliderEnumeration is the non-metric variant: "enumerations of the
	// possible values with the possibility to select each of the
	// values".
	SliderEnumeration
	// SliderMedianDeviation is the numeric variant "where the medium
	// value and some allowed deviation can be manipulated graphically"
	// (the rightmost slider of figure 4).
	SliderMedianDeviation
)

// SliderSpec describes one query-modification slider: the color spectrum
// of an attribute's distance distribution with the current query range
// marked by black lines (section 4.3).
type SliderSpec struct {
	Title    string
	Spectrum []colormap.RGB
	// MarkLo and MarkHi are positions in [0,1] for the query-range
	// marker lines; negative values omit the mark.
	MarkLo float64
	MarkHi float64
	// Caption is an optional second line (e.g. "15.0 .. max").
	Caption string
	// Kind selects the slider variant; the fields below apply to
	// specific kinds.
	Kind SliderKind
	// Ticks is the number of discrete positions (SliderDiscrete).
	Ticks int
	// Labels and Selected describe an enumeration slider's categories
	// and their selection state (SliderEnumeration).
	Labels   []string
	Selected []bool
	// Median and Deviation are positions in [0,1]
	// (SliderMedianDeviation).
	Median    float64
	Deviation float64
}

// Sliders renders a vertical stack of sliders, each barW×barH pixels.
func Sliders(specs []SliderSpec, barW, barH int) *Image {
	if barW < 1 {
		barW = 1
	}
	if barH < 1 {
		barH = 1
	}
	const gap = 4
	lineH := TextHeight + 2 + barH + TextHeight + 2 + gap
	out := NewImage(barW+2, lineH*len(specs)+gap)
	y := gap
	markCol := colormap.C(0, 0, 0)
	for _, s := range specs {
		out.DrawText(1, y, s.Title, titleColor)
		y += TextHeight + 2
		switch s.Kind {
		case SliderEnumeration:
			drawEnumeration(out, s, 1, y, barW, barH)
		default:
			drawSpectrum(out, s.Spectrum, 1, y, barW, barH)
			if s.Kind == SliderDiscrete && s.Ticks > 1 {
				for t := 0; t <= s.Ticks; t++ {
					x := 1 + t*(barW-1)/s.Ticks
					out.Set(x, y, markCol)
					out.Set(x, y+barH-1, markCol)
				}
			}
			if s.Kind == SliderMedianDeviation {
				drawMedianDeviation(out, s, 1, y, barW, barH, markCol)
			} else {
				for _, m := range []float64{s.MarkLo, s.MarkHi} {
					if m < 0 || m > 1 {
						continue
					}
					x := int(m*float64(barW-1)) + 1
					for yy := -1; yy <= barH; yy++ {
						out.Set(x, y+yy, markCol)
					}
				}
			}
		}
		y += barH + 2
		if s.Caption != "" {
			out.DrawText(1, y, s.Caption, titleColor)
		}
		y += TextHeight + gap
	}
	return out
}

// drawSpectrum paints the color bar.
func drawSpectrum(out *Image, spectrum []colormap.RGB, x0, y0, barW, barH int) {
	for x := 0; x < barW; x++ {
		var c colormap.RGB
		if len(spectrum) > 0 {
			idx := x * len(spectrum) / barW
			if idx >= len(spectrum) {
				idx = len(spectrum) - 1
			}
			c = spectrum[idx]
		}
		for yy := 0; yy < barH; yy++ {
			out.Set(x0+x, y0+yy, c)
		}
	}
}

// drawEnumeration paints one cell per category, selected cells bright
// with a white outline.
func drawEnumeration(out *Image, s SliderSpec, x0, y0, barW, barH int) {
	n := len(s.Labels)
	if n == 0 {
		return
	}
	cellW := barW / n
	if cellW < 2 {
		cellW = 2
	}
	for i := range s.Labels {
		x := x0 + i*cellW
		sel := i < len(s.Selected) && s.Selected[i]
		fill := colormap.C(60, 60, 80)
		if sel {
			fill = colormap.C(230, 210, 40)
		}
		out.FillRect(x, y0, cellW-1, barH, fill)
		if sel {
			out.Rect(x, y0, cellW-1, barH, colormap.HighlightColor)
		}
	}
}

// drawMedianDeviation marks the median with a full-height line and the
// ±deviation bounds with half-height brackets.
func drawMedianDeviation(out *Image, s SliderSpec, x0, y0, barW, barH int, markCol colormap.RGB) {
	if s.Median >= 0 && s.Median <= 1 {
		x := x0 + int(s.Median*float64(barW-1))
		for yy := -1; yy <= barH; yy++ {
			out.Set(x, y0+yy, markCol)
		}
	}
	for _, side := range []float64{s.Median - s.Deviation, s.Median + s.Deviation} {
		if side < 0 || side > 1 {
			continue
		}
		x := x0 + int(side*float64(barW-1))
		for yy := 0; yy < barH/2; yy++ {
			out.Set(x, y0+yy, markCol)
		}
	}
}

// SideBySide joins two images horizontally with pad pixels between,
// aligning their tops — used to place the visualization part next to
// the query-modification part.
func SideBySide(a, b *Image, pad int) *Image {
	if pad < 0 {
		pad = 0
	}
	h := a.H
	if b.H > h {
		h = b.H
	}
	out := NewImage(a.W+pad+b.W, h)
	out.Blit(a, 0, 0)
	out.Blit(b, a.W+pad, 0)
	return out
}

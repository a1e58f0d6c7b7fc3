package arrange

// QuadItem describes one data item for the 2D arrangement of figure 1b:
// the signs of its distances for the two attributes assigned to the axes.
// SignX < 0 places the item left of center, > 0 right; SignY < 0 places
// it below center (bottom of the window), > 0 above. Items with both
// signs zero are correct answers and cluster at the center.
type QuadItem struct {
	SignX int
	SignY int
}

// Quad2D assigns cells of a w×h window to items, which must be sorted by
// descending relevance. Each (SignX, SignY) combination owns a region of
// the window; inside a region, more relevant items sit closer to the
// window center, so the yellow region forms in the middle and the
// direction of a distance is encoded by location (section 4.2):
// "we denote the absolute value of the distance by its color and the
// direction by its location relative to the correct answers".
//
// Exact answers (0,0) are spread round-robin over the four quadrants'
// innermost cells so the yellow region stays centered. Items that do not
// fit their region get Unplaced. The returned slice has length
// len(items).
func Quad2D(w, h int, items []QuadItem) []Point {
	out := make([]Point, len(items))
	if w < 2 || h < 2 {
		for i := range out {
			out[i] = Unplaced
		}
		return out
	}
	// Quadrant index: 0 = right/top, 1 = left/top, 2 = left/bottom,
	// 3 = right/bottom (math convention, mapped to image coordinates
	// where y grows downward: "top" means smaller Y).
	quadCells := [4][]Point{
		quadrantCells(w, h, +1, -1),
		quadrantCells(w, h, -1, -1),
		quadrantCells(w, h, -1, +1),
		quadrantCells(w, h, +1, +1),
	}
	next := [4]int{}
	rr := 0 // round-robin cursor for exact answers
	place := func(q int) Point {
		if next[q] < len(quadCells[q]) {
			p := quadCells[q][next[q]]
			next[q]++
			return p
		}
		return Unplaced
	}
	for i, it := range items {
		q := -1
		if it.SignX == 0 && it.SignY == 0 {
			// Exact answer: innermost free cell across quadrants.
			best, bestRing := -1, int(^uint(0)>>1)
			for k := 0; k < 4; k++ {
				qi := (rr + k) % 4
				if next[qi] < len(quadCells[qi]) {
					r := Ring(w, h, quadCells[qi][next[qi]])
					if r < bestRing {
						bestRing, best = r, qi
					}
				}
			}
			rr++
			q = best
		} else {
			// Positive SignY means "top" (smaller image Y); items with a
			// zero sign in one dimension sit on that axis' positive side.
			right := it.SignX >= 0
			top := it.SignY >= 0
			switch {
			case right && top:
				q = 0
			case !right && top:
				q = 1
			case !right && !top:
				q = 2
			default:
				q = 3
			}
		}
		if q < 0 {
			out[i] = Unplaced
			continue
		}
		out[i] = place(q)
	}
	return out
}

// quadrantCells enumerates the cells of one quadrant ordered by L∞
// distance from the window center, so consuming them front to back fills
// the quadrant from the middle outward. sx/sy select the quadrant:
// sx=+1 keeps cells right of (and including) center, -1 strictly left;
// sy=+1 keeps cells below (image down), -1 above-or-at center.
func quadrantCells(w, h int, sx, sy int) []Point {
	c := Center(w, h)
	var cells []Point
	for _, p := range Spiral(w, h) {
		inX := (sx > 0 && p.X >= c.X) || (sx < 0 && p.X < c.X)
		inY := (sy > 0 && p.Y > c.Y) || (sy < 0 && p.Y <= c.Y)
		if inX && inY {
			cells = append(cells, p)
		}
	}
	return cells
}

// BlockSide returns the side length of the square pixel block for the
// given pixels-per-item factor (1, 4 or 16 per section 4.2). Unsupported
// factors fall back to 1.
func BlockSide(pixelsPerItem int) int {
	switch pixelsPerItem {
	case 4:
		return 2
	case 16:
		return 4
	default:
		return 1
	}
}

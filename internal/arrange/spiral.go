// Package arrange computes pixel arrangements for the VisDB windows: the
// rectangular spiral of figure 1a (highest relevance factors centered in
// the middle, approximate answers spiraling outward) and the 2D quadrant
// arrangement of figure 1b for signed distances, plus the 1/4/16-pixel
// block scaling of section 4.2.
package arrange

// Point is a cell coordinate inside a window grid. X grows rightward,
// Y grows downward (image convention).
type Point struct{ X, Y int }

// Unplaced is the sentinel cell for items that do not fit in a window.
var Unplaced = Point{-1, -1}

// Center returns the cell considered the middle of a w×h grid (the
// anchor of the yellow region).
func Center(w, h int) Point { return Point{(w - 1) / 2, (h - 1) / 2} }

// chebyshev is the L∞ distance between two points, i.e. the spiral ring
// number of p around c.
func chebyshev(p, c Point) int {
	dx := p.X - c.X
	if dx < 0 {
		dx = -dx
	}
	dy := p.Y - c.Y
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// Spiral returns all w*h cells of a window in rectangular-spiral order
// from the center outward: ring 0 is the center cell, ring k holds every
// cell at L∞ distance k from the center, enumerated clockwise starting
// just right of the previous ring's end. Sorted relevance factors mapped
// onto this sequence produce figure 1a: absolutely correct answers
// (yellow) in the middle, approximate answers spiral-shaped around them.
//
// For non-square windows, ring cells falling outside the window are
// skipped, so the sequence is still a permutation of all cells and ring
// numbers never decrease along it.
func Spiral(w, h int) []Point {
	if w <= 0 || h <= 0 {
		return nil
	}
	c := Center(w, h)
	cells := make([]Point, 0, w*h)
	cells = append(cells, c)
	// The largest ring needed covers the farthest corner.
	maxRing := chebyshev(Point{0, 0}, c)
	for _, corner := range []Point{{w - 1, 0}, {0, h - 1}, {w - 1, h - 1}} {
		if r := chebyshev(corner, c); r > maxRing {
			maxRing = r
		}
	}
	for k := 1; k <= maxRing; k++ {
		for _, p := range ring(c, k) {
			if p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h {
				cells = append(cells, p)
			}
		}
	}
	return cells
}

// ring enumerates the cells at L∞ distance k from c in clockwise order:
// across the top edge left→right, down the right edge, across the bottom
// edge right→left, and up the left edge.
func ring(c Point, k int) []Point {
	if k == 0 {
		return []Point{c}
	}
	out := make([]Point, 0, 8*k)
	// Top edge (y = c.Y-k), x from c.X-k to c.X+k.
	for x := c.X - k; x <= c.X+k; x++ {
		out = append(out, Point{x, c.Y - k})
	}
	// Right edge (x = c.X+k), y from c.Y-k+1 to c.Y+k.
	for y := c.Y - k + 1; y <= c.Y+k; y++ {
		out = append(out, Point{c.X + k, y})
	}
	// Bottom edge (y = c.Y+k), x from c.X+k-1 down to c.X-k.
	for x := c.X + k - 1; x >= c.X-k; x-- {
		out = append(out, Point{x, c.Y + k})
	}
	// Left edge (x = c.X-k), y from c.Y+k-1 down to c.Y-k+1.
	for y := c.Y + k - 1; y >= c.Y-k+1; y-- {
		out = append(out, Point{c.X - k, y})
	}
	return out
}

// Ring reports the spiral ring number of cell p in a w×h window.
func Ring(w, h int, p Point) int { return chebyshev(p, Center(w, h)) }

// Place assigns the first min(n, w*h) of n rank-ordered items to spiral
// cells: item 0 (most relevant) gets the center. Items beyond capacity
// get Unplaced. The returned slice has length n.
func Place(w, h, n int) []Point {
	cells := Spiral(w, h)
	out := make([]Point, n)
	for i := range out {
		if i < len(cells) {
			out[i] = cells[i]
		} else {
			out[i] = Unplaced
		}
	}
	return out
}

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
	return spiral(make([]Point, 0, w*h), w, h)
}

// spiral appends to cells the next cells of the w×h window's spiral
// until cells is full (cap(cells) ≤ w*h): ring by ring, each across the
// top edge left→right, down the right edge, across the bottom edge
// right→left, and up the left edge.
func spiral(cells []Point, w, h int) []Point {
	add := func(x, y int) {
		if x >= 0 && x < w && y >= 0 && y < h && len(cells) < cap(cells) {
			cells = append(cells, Point{x, y})
		}
	}
	c := Center(w, h)
	add(c.X, c.Y)
	for k := 1; len(cells) < cap(cells); k++ {
		for x := c.X - k; x <= c.X+k; x++ {
			add(x, c.Y-k)
		}
		for y := c.Y - k + 1; y <= c.Y+k; y++ {
			add(c.X+k, y)
		}
		for x := c.X + k - 1; x >= c.X-k; x-- {
			add(x, c.Y+k)
		}
		for y := c.Y + k - 1; y >= c.Y-k+1; y-- {
			add(c.X-k, y)
		}
	}
	return cells
}

// Ring reports the spiral ring number of cell p in a w×h window.
func Ring(w, h int, p Point) int { return chebyshev(p, Center(w, h)) }

// Place assigns the first min(n, w*h) of n rank-ordered items to spiral
// cells: item 0 (most relevant) gets the center. Items beyond capacity
// get Unplaced. The returned slice has length n.
func Place(w, h, n int) []Point {
	out := make([]Point, n)
	placed := 0
	if w > 0 && h > 0 {
		placed = len(spiral(out[:0:min(n, w*h)], w, h))
	}
	for i := placed; i < n; i++ {
		out[i] = Unplaced
	}
	return out
}

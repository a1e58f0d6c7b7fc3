package arrange

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSpiralIsPermutation(t *testing.T) {
	for _, dim := range []struct{ w, h int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 3}, {3, 5}, {7, 2}, {1, 9}, {16, 16}, {31, 17},
	} {
		cells := Spiral(dim.w, dim.h)
		if len(cells) != dim.w*dim.h {
			t.Fatalf("%dx%d: got %d cells", dim.w, dim.h, len(cells))
		}
		seen := make(map[Point]bool, len(cells))
		for _, p := range cells {
			if p.X < 0 || p.X >= dim.w || p.Y < 0 || p.Y >= dim.h {
				t.Fatalf("%dx%d: out-of-window cell %+v", dim.w, dim.h, p)
			}
			if seen[p] {
				t.Fatalf("%dx%d: duplicate cell %+v", dim.w, dim.h, p)
			}
			seen[p] = true
		}
	}
}

func TestSpiralStartsAtCenter(t *testing.T) {
	cells := Spiral(5, 5)
	if cells[0] != (Point{2, 2}) {
		t.Fatalf("first cell = %+v, want center", cells[0])
	}
}

func TestSpiralRingsMonotone(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{5, 5}, {8, 8}, {9, 4}, {4, 9}, {30, 20}} {
		cells := Spiral(dim.w, dim.h)
		prev := 0
		for i, p := range cells {
			r := Ring(dim.w, dim.h, p)
			if r < prev {
				t.Fatalf("%dx%d: ring decreases at %d (%d -> %d)", dim.w, dim.h, i, prev, r)
			}
			prev = r
		}
	}
}

// Property: spirals of random dimensions are complete permutations with
// monotone rings.
func TestSpiralProperty(t *testing.T) {
	f := func(rw, rh uint8) bool {
		w := int(rw%40) + 1
		h := int(rh%40) + 1
		cells := Spiral(w, h)
		if len(cells) != w*h {
			return false
		}
		seen := make(map[Point]bool, len(cells))
		prev := 0
		for _, p := range cells {
			if seen[p] || p.X < 0 || p.X >= w || p.Y < 0 || p.Y >= h {
				return false
			}
			seen[p] = true
			r := Ring(w, h, p)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpiralDegenerate(t *testing.T) {
	if Spiral(0, 5) != nil || Spiral(5, 0) != nil || Spiral(-1, -1) != nil {
		t.Error("non-positive dims should yield nil")
	}
	one := Spiral(1, 1)
	if len(one) != 1 || one[0] != (Point{0, 0}) {
		t.Errorf("1x1 spiral = %+v", one)
	}
}

func TestPlaceOverflow(t *testing.T) {
	pts := Place(2, 2, 6)
	if len(pts) != 6 {
		t.Fatalf("len = %d", len(pts))
	}
	for i := 0; i < 4; i++ {
		if pts[i] == Unplaced {
			t.Errorf("item %d should be placed", i)
		}
	}
	for i := 4; i < 6; i++ {
		if pts[i] != Unplaced {
			t.Errorf("item %d should be unplaced, got %+v", i, pts[i])
		}
	}
}

// spiralRef is the ring-at-a-time enumeration Spiral and Place replaced:
// every ring's cells built as a slice, those inside the window kept.
func spiralRef(w, h int) []Point {
	c := Center(w, h)
	cells := []Point{c}
	maxRing := 0
	for _, corner := range []Point{{0, 0}, {w - 1, 0}, {0, h - 1}, {w - 1, h - 1}} {
		maxRing = max(maxRing, chebyshev(corner, c))
	}
	for k := 1; k <= maxRing; k++ {
		var ring []Point
		for x := c.X - k; x <= c.X+k; x++ {
			ring = append(ring, Point{x, c.Y - k})
		}
		for y := c.Y - k + 1; y <= c.Y+k; y++ {
			ring = append(ring, Point{c.X + k, y})
		}
		for x := c.X + k - 1; x >= c.X-k; x-- {
			ring = append(ring, Point{x, c.Y + k})
		}
		for y := c.Y + k - 1; y >= c.Y-k+1; y-- {
			ring = append(ring, Point{c.X - k, y})
		}
		for _, p := range ring {
			if p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h {
				cells = append(cells, p)
			}
		}
	}
	return cells
}

// TestPlaceMatchesSpiral: Place(w, h, n) is Spiral(w, h)[:n] padded with
// Unplaced, and both follow the reference enumeration cell for cell, on
// odd, even, 1×1 and non-square grids, for n short of, at and past the
// window's capacity.
func TestPlaceMatchesSpiral(t *testing.T) {
	for _, dim := range []struct{ w, h int }{{1, 1}, {5, 5}, {6, 6}, {7, 4}, {4, 7}, {1, 9}, {16, 3}, {128, 128}} {
		ref := spiralRef(dim.w, dim.h)
		if got := Spiral(dim.w, dim.h); !slices.Equal(got, ref) {
			t.Fatalf("%dx%d: Spiral differs from the reference", dim.w, dim.h)
		}
		wh := dim.w * dim.h
		for _, n := range []int{0, 1, wh / 2, wh - 1, wh, wh + 3} {
			want := make([]Point, n)
			for i := range want {
				want[i] = Unplaced
				if i < wh {
					want[i] = ref[i]
				}
			}
			if got := Place(dim.w, dim.h, n); !slices.Equal(got, want) {
				t.Fatalf("%dx%d n=%d: Place = %v, want %v", dim.w, dim.h, n, got, want)
			}
		}
	}
	if got := Place(0, 3, 2); !slices.Equal(got, []Point{Unplaced, Unplaced}) {
		t.Fatalf("empty window: Place = %v", got)
	}
}

func TestQuad2DSeparatesSigns(t *testing.T) {
	w, h := 10, 10
	c := Center(w, h)
	items := []QuadItem{
		{+1, +1}, {-1, +1}, {-1, -1}, {+1, -1},
	}
	pts := Quad2D(w, h, items)
	// SignX>0 → right half (x >= cx); SignX<0 → left (x < cx).
	// SignY>0 → top (y <= cy in image coords); SignY<0 → bottom (y > cy).
	if !(pts[0].X >= c.X && pts[0].Y <= c.Y) {
		t.Errorf("(+,+) placed at %+v, want right/top of %+v", pts[0], c)
	}
	if !(pts[1].X < c.X && pts[1].Y <= c.Y) {
		t.Errorf("(-,+) placed at %+v", pts[1])
	}
	if !(pts[2].X < c.X && pts[2].Y > c.Y) {
		t.Errorf("(-,-) placed at %+v", pts[2])
	}
	if !(pts[3].X >= c.X && pts[3].Y > c.Y) {
		t.Errorf("(+,-) placed at %+v", pts[3])
	}
}

func TestQuad2DExactAnswersCenter(t *testing.T) {
	w, h := 12, 12
	items := make([]QuadItem, 8) // all exact (0,0)
	pts := Quad2D(w, h, items)
	for i, p := range pts {
		if p == Unplaced {
			t.Fatalf("exact item %d unplaced", i)
		}
		if r := Ring(w, h, p); r > 2 {
			t.Errorf("exact item %d at ring %d (%+v), want near center", i, r, p)
		}
	}
}

func TestQuad2DMoreRelevantCloserToCenter(t *testing.T) {
	w, h := 20, 20
	// 30 items all in the same quadrant, already sorted by relevance.
	items := make([]QuadItem, 30)
	for i := range items {
		items[i] = QuadItem{+1, +1}
	}
	pts := Quad2D(w, h, items)
	prev := -1
	for i, p := range pts {
		r := Ring(w, h, p)
		if r < prev {
			t.Fatalf("item %d (ring %d) closer to center than item %d (ring %d)", i, r, i-1, prev)
		}
		prev = r
	}
}

func TestQuad2DIsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w, h := 14, 11
	items := make([]QuadItem, w*h)
	for i := range items {
		items[i] = QuadItem{rng.Intn(3) - 1, rng.Intn(3) - 1}
	}
	pts := Quad2D(w, h, items)
	seen := make(map[Point]int)
	for i, p := range pts {
		if p == Unplaced {
			continue
		}
		if j, dup := seen[p]; dup {
			t.Fatalf("items %d and %d share cell %+v", j, i, p)
		}
		seen[p] = i
	}
}

func TestQuad2DOverflow(t *testing.T) {
	// 3x3 window, quadrant capacity is small; flood one quadrant.
	items := make([]QuadItem, 20)
	for i := range items {
		items[i] = QuadItem{+1, +1}
	}
	pts := Quad2D(3, 3, items)
	placed := 0
	for _, p := range pts {
		if p != Unplaced {
			placed++
		}
	}
	if placed == 0 || placed == len(items) {
		t.Fatalf("expected partial placement, placed=%d", placed)
	}
}

func TestQuad2DDegenerateWindow(t *testing.T) {
	pts := Quad2D(1, 1, []QuadItem{{0, 0}, {1, 1}})
	for i, p := range pts {
		if p != Unplaced {
			t.Errorf("item %d should be unplaced in 1x1, got %+v", i, p)
		}
	}
}

// Property: Quad2D never places two items on one cell and never places
// items outside the window.
func TestQuad2DProperty(t *testing.T) {
	f := func(rw, rh uint8, signs []int8) bool {
		w := int(rw%30) + 2
		h := int(rh%30) + 2
		items := make([]QuadItem, len(signs)/2)
		for i := range items {
			items[i] = QuadItem{int(signs[2*i])%2 - 0, int(signs[2*i+1]) % 2}
		}
		pts := Quad2D(w, h, items)
		seen := make(map[Point]bool)
		for _, p := range pts {
			if p == Unplaced {
				continue
			}
			if p.X < 0 || p.X >= w || p.Y < 0 || p.Y >= h || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockSide(t *testing.T) {
	cases := []struct{ px, want int }{{1, 1}, {4, 2}, {16, 4}, {9, 1}, {0, 1}, {-2, 1}}
	for _, c := range cases {
		if got := BlockSide(c.px); got != c.want {
			t.Errorf("BlockSide(%d) = %d, want %d", c.px, got, c.want)
		}
	}
}

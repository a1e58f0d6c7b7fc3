package render

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arrange"
	"repro/internal/colormap"
)

func TestImageSetAtBounds(t *testing.T) {
	im := NewImage(4, 3)
	red := colormap.C(255, 0, 0)
	im.Set(2, 1, red)
	if im.At(2, 1) != red {
		t.Fatal("Set/At")
	}
	// Out-of-bounds are silent no-ops / zero reads.
	im.Set(-1, 0, red)
	im.Set(0, -1, red)
	im.Set(4, 0, red)
	im.Set(0, 3, red)
	if im.At(-1, 0) != (colormap.RGB{}) || im.At(9, 9) != (colormap.RGB{}) {
		t.Fatal("out-of-bounds reads")
	}
	neg := NewImage(-3, -2)
	if neg.W != 0 || neg.H != 0 {
		t.Fatal("negative dims clamp to zero")
	}
}

func TestFillAndRect(t *testing.T) {
	im := NewImage(10, 10)
	c := colormap.C(1, 2, 3)
	im.FillRect(2, 2, 3, 3, c)
	if im.At(2, 2) != c || im.At(4, 4) != c {
		t.Fatal("FillRect interior")
	}
	if im.At(5, 5) == c {
		t.Fatal("FillRect leaked")
	}
	o := colormap.C(9, 9, 9)
	im.Rect(0, 0, 10, 10, o)
	if im.At(0, 0) != o || im.At(9, 9) != o || im.At(5, 0) != o {
		t.Fatal("Rect outline")
	}
	if im.At(5, 5) == o {
		t.Fatal("Rect filled interior")
	}
}

func TestBlitClips(t *testing.T) {
	dst := NewImage(4, 4)
	src := NewImage(3, 3)
	c := colormap.C(7, 7, 7)
	src.Fill(c)
	dst.Blit(src, 2, 2) // bottom-right corner, partially off-image
	if dst.At(2, 2) != c || dst.At(3, 3) != c {
		t.Fatal("Blit visible part")
	}
	if dst.At(1, 1) == c {
		t.Fatal("Blit leaked")
	}
}

func TestEncodePNGRoundTrip(t *testing.T) {
	im := NewImage(5, 4)
	im.Set(1, 2, colormap.C(10, 20, 30))
	var buf bytes.Buffer
	if err := im.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := decoded.Bounds()
	if b.Dx() != 5 || b.Dy() != 4 {
		t.Fatalf("bounds: %v", b)
	}
	r, g, bb, a := decoded.At(1, 2).RGBA()
	if r>>8 != 10 || g>>8 != 20 || bb>>8 != 30 || a>>8 != 255 {
		t.Fatalf("pixel: %d %d %d %d", r>>8, g>>8, bb>>8, a>>8)
	}
}

func TestSavePNG(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "img.png")
	im := NewImage(3, 3)
	if err := im.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := png.Decode(f); err != nil {
		t.Fatal(err)
	}
}

func TestASCII(t *testing.T) {
	im := NewImage(20, 10)
	im.FillRect(0, 0, 10, 10, colormap.C(255, 255, 255))
	art := im.ASCII(10, 5)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rows: %d", len(lines))
	}
	// Left half bright, right half dark.
	if lines[0][0] != '@' {
		t.Errorf("bright cell: %q", lines[0])
	}
	if lines[0][len(lines[0])-1] == '@' {
		t.Errorf("dark cell should not be @: %q", lines[0])
	}
	if NewImage(0, 0).ASCII(5, 5) != "" {
		t.Error("empty image ASCII")
	}
}

func TestDrawText(t *testing.T) {
	im := NewImage(100, 10)
	white := colormap.C(255, 255, 255)
	end := im.DrawText(0, 0, "ABC 123", white)
	if end != TextWidth("ABC 123")+1 {
		t.Errorf("advance = %d, want %d", end, TextWidth("ABC 123")+1)
	}
	lit := 0
	for _, p := range im.Pix {
		if p == white {
			lit++
		}
	}
	if lit < 20 {
		t.Errorf("text barely rendered: %d lit pixels", lit)
	}
	// Unknown runes fall back to '?' rather than panicking.
	im.DrawText(0, 0, "日本", white)
	if TextWidth("") != 0 {
		t.Error("empty width")
	}
}

func TestWindowCells(t *testing.T) {
	w := NewWindow("test", 4, 3, 2)
	if w.Capacity() != 12 {
		t.Fatalf("capacity: %d", w.Capacity())
	}
	c := colormap.C(200, 100, 0)
	w.SetCell(arrange.Point{X: 1, Y: 1}, c)
	got, ok := w.CellAt(arrange.Point{X: 1, Y: 1})
	if !ok || got != c {
		t.Fatal("CellAt")
	}
	if _, ok := w.CellAt(arrange.Point{X: 0, Y: 0}); ok {
		t.Fatal("unset cell should report !ok")
	}
	// Out-of-grid and Unplaced are ignored.
	w.SetCell(arrange.Unplaced, c)
	w.SetCell(arrange.Point{X: 9, Y: 9}, c)
	if _, ok := w.CellAt(arrange.Point{X: 9, Y: 9}); ok {
		t.Fatal("out-of-grid cell set")
	}
	im := w.Image()
	pw, ph := w.PixelSize()
	if im.W != pw || im.H != ph || pw != 8 || ph != 6 {
		t.Fatalf("image dims: %dx%d", im.W, im.H)
	}
	// Block expansion: all 4 pixels of cell (1,1) colored.
	for _, p := range []struct{ x, y int }{{2, 2}, {3, 2}, {2, 3}, {3, 3}} {
		if im.At(p.x, p.y) != c {
			t.Fatalf("block pixel (%d,%d) = %+v", p.x, p.y, im.At(p.x, p.y))
		}
	}
}

func TestWindowHighlights(t *testing.T) {
	w := NewWindow("hl", 3, 3, 1)
	p := arrange.Point{X: 1, Y: 1}
	w.SetCell(p, colormap.C(10, 10, 10))
	w.Highlight(p)
	im := w.Image()
	if im.At(1, 1) != colormap.HighlightColor {
		t.Fatal("highlight overlay")
	}
}

func TestCompose(t *testing.T) {
	mk := func(title string) *Window {
		w := NewWindow(title, 8, 8, 1)
		w.SetCell(arrange.Point{X: 4, Y: 4}, colormap.C(255, 255, 0))
		return w
	}
	out := Compose([]*Window{mk("overall result"), mk("cond 1"), mk("cond 2"), mk("cond 3")}, 2, 4)
	if out.W <= 0 || out.H <= 0 {
		t.Fatal("empty composition")
	}
	// Expect 2 columns × 2 rows: width ≈ 2 windows + 3 pads.
	if out.W < 2*8 || out.H < 2*(8+TextHeight) {
		t.Fatalf("implausible dims %dx%d", out.W, out.H)
	}
	// Degenerates.
	if e := Compose(nil, 2, 2); e.W != 0 {
		t.Fatal("nil windows")
	}
	one := Compose([]*Window{mk("x")}, 0, -3) // cols/pad clamp
	if one.W <= 0 {
		t.Fatal("clamped compose")
	}
}

func TestSliders(t *testing.T) {
	spec := SliderSpec{
		Title:    "Temperature",
		Spectrum: colormap.VisDB(64).Spectrum(64),
		MarkLo:   0.2,
		MarkHi:   0.8,
		Caption:  "15.0 .. 35.0",
	}
	im := Sliders([]SliderSpec{spec, {Title: "empty", MarkLo: -1, MarkHi: -1}}, 100, 8)
	if im.W != 102 {
		t.Fatalf("width: %d", im.W)
	}
	// The spectrum row should contain the colormap's yellow at the left.
	yellow := colormap.VisDB(64).At(0)
	found := false
	for y := 0; y < im.H && !found; y++ {
		if im.At(1, y) == yellow {
			found = true
		}
	}
	if !found {
		t.Fatal("spectrum start color missing")
	}
	// Marker line: a black column near x = 0.2*99+1.
	black := colormap.C(0, 0, 0)
	frac := 0.2
	markX := int(frac*99) + 1
	foundMark := false
	for y := 0; y < im.H && !foundMark; y++ {
		if im.At(markX, y) == black {
			foundMark = true
		}
	}
	if !foundMark {
		t.Fatal("query-range marker missing")
	}
}

func TestSideBySide(t *testing.T) {
	a := NewImage(5, 3)
	b := NewImage(4, 7)
	c := colormap.C(123, 45, 67)
	b.Set(0, 6, c)
	out := SideBySide(a, b, 2)
	if out.W != 11 || out.H != 7 {
		t.Fatalf("dims: %dx%d", out.W, out.H)
	}
	if out.At(7, 6) != c {
		t.Fatal("b content displaced")
	}
}

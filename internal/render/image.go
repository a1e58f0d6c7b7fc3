// Package render is the output substrate of the VisDB reproduction. The
// original system painted X11 windows on a 19″ 1,024×1,280 display; Go
// has no GUI in the standard library, so this package renders the same
// pixel content into an off-screen framebuffer and encodes it as PNG,
// with an ASCII preview for terminals. All the visual-feedback
// semantics (window geometry, pixel blocks, color levels, highlighting)
// are preserved; only the output device differs.
package render

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"
	"path/filepath"

	"repro/internal/colormap"
)

// Image is an RGB framebuffer with image-convention coordinates
// (x right, y down).
type Image struct {
	W, H int
	Pix  []colormap.RGB
}

// NewImage allocates a w×h framebuffer filled with the background color.
func NewImage(w, h int) *Image {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	im := &Image{W: w, H: h, Pix: make([]colormap.RGB, w*h)}
	im.Fill(colormap.BackgroundColor)
	return im
}

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool {
	return x >= 0 && x < im.W && y >= 0 && y < im.H
}

// Set writes pixel (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, c colormap.RGB) {
	if im.In(x, y) {
		im.Pix[y*im.W+x] = c
	}
}

// At reads pixel (x, y); out-of-bounds reads return the zero color.
func (im *Image) At(x, y int) colormap.RGB {
	if !im.In(x, y) {
		return colormap.RGB{}
	}
	return im.Pix[y*im.W+x]
}

// Fill paints the whole image with c.
func (im *Image) Fill(c colormap.RGB) {
	for i := range im.Pix {
		im.Pix[i] = c
	}
}

// FillRect paints the axis-aligned rectangle with top-left (x, y), width
// w and height h, clipped to the image.
func (im *Image) FillRect(x, y, w, h int, c colormap.RGB) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			im.Set(xx, yy, c)
		}
	}
}

// Rect draws a 1-pixel rectangle outline.
func (im *Image) Rect(x, y, w, h int, c colormap.RGB) {
	for xx := x; xx < x+w; xx++ {
		im.Set(xx, y, c)
		im.Set(xx, y+h-1, c)
	}
	for yy := y; yy < y+h; yy++ {
		im.Set(x, yy, c)
		im.Set(x+w-1, yy, c)
	}
}

// Blit copies src into im with its top-left at (x, y), clipping.
func (im *Image) Blit(src *Image, x, y int) {
	for sy := 0; sy < src.H; sy++ {
		for sx := 0; sx < src.W; sx++ {
			im.Set(x+sx, y+sy, src.Pix[sy*src.W+sx])
		}
	}
}

// EncodePNG writes the image as PNG.
func (im *Image) EncodePNG(w io.Writer) error {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p := im.Pix[y*im.W+x]
			out.SetNRGBA(x, y, color.NRGBA{R: p.R, G: p.G, B: p.B, A: 255})
		}
	}
	return png.Encode(w, out)
}

// SavePNG writes the image to path, creating parent directories.
func (im *Image) SavePNG(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("render: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("render: create %s: %w", path, err)
	}
	defer f.Close()
	if err := im.EncodePNG(f); err != nil {
		return fmt.Errorf("render: encode %s: %w", path, err)
	}
	return f.Close()
}

// asciiRamp maps luminance to characters, dark to bright.
const asciiRamp = " .:-=+*#%@"

// ASCII renders a downsampled text preview at most maxW×maxH characters,
// using a luminance ramp. It is the terminal stand-in for eyeballing a
// window.
func (im *Image) ASCII(maxW, maxH int) string {
	if im.W == 0 || im.H == 0 || maxW < 1 || maxH < 1 {
		return ""
	}
	stepX := (im.W + maxW - 1) / maxW
	stepY := (im.H + maxH - 1) / maxH
	if stepX < 1 {
		stepX = 1
	}
	if stepY < 1 {
		stepY = 1
	}
	var b []byte
	for y := 0; y < im.H; y += stepY {
		for x := 0; x < im.W; x += stepX {
			// Average the cell's luminance.
			var sum float64
			var cnt int
			for yy := y; yy < y+stepY && yy < im.H; yy++ {
				for xx := x; xx < x+stepX && xx < im.W; xx++ {
					sum += colormap.Luminance(im.Pix[yy*im.W+xx])
					cnt++
				}
			}
			l := sum / float64(cnt)
			idx := int(l * float64(len(asciiRamp)))
			if idx >= len(asciiRamp) {
				idx = len(asciiRamp) - 1
			}
			b = append(b, asciiRamp[idx])
		}
		b = append(b, '\n')
	}
	return string(b)
}

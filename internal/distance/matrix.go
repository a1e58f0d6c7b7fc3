package distance

import (
	"fmt"
	"math"
)

// Matrix is a distance matrix over a finite label set, the paper's
// distance representation for ordinal and nominal datatypes. It is
// symmetric with a zero diagonal and non-negative entries.
type Matrix struct {
	index map[string]int
	d     [][]float64
}

// NewMatrix validates and builds a distance matrix. d must be square
// with side len(labels), symmetric, zero on the diagonal and free of
// negative or NaN entries.
func NewMatrix(labels []string, d [][]float64) (*Matrix, error) {
	n := len(labels)
	if n == 0 {
		return nil, fmt.Errorf("distance: matrix needs at least one label")
	}
	if len(d) != n {
		return nil, fmt.Errorf("distance: matrix has %d rows, want %d", len(d), n)
	}
	index := make(map[string]int, n)
	for i, l := range labels {
		if _, dup := index[l]; dup {
			return nil, fmt.Errorf("distance: duplicate label %q", l)
		}
		index[l] = i
	}
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("distance: row %d has %d entries, want %d", i, len(d[i]), n)
		}
		for j := range d[i] {
			v := d[i][j]
			if math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("distance: invalid entry d[%d][%d] = %v", i, j, v)
			}
			if i == j && v != 0 {
				return nil, fmt.Errorf("distance: nonzero diagonal d[%d][%d] = %v", i, j, v)
			}
			if d[j][i] != v {
				return nil, fmt.Errorf("distance: asymmetric at (%d,%d): %v vs %v", i, j, v, d[j][i])
			}
		}
	}
	cp := make([][]float64, n)
	for i := range cp {
		cp[i] = append([]float64(nil), d[i]...)
	}
	return &Matrix{index: index, d: cp}, nil
}

// Ordinal builds the canonical ordinal-type matrix over labels in rank
// order: d(i,j) = |i-j|.
func Ordinal(labels []string) (*Matrix, error) {
	n := len(labels)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Abs(float64(i - j))
		}
	}
	return NewMatrix(labels, d)
}

// Discrete builds the nominal-type matrix: d = 0 for equal labels,
// 1 otherwise.
func Discrete(labels []string) (*Matrix, error) {
	n := len(labels)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = 1
			}
		}
	}
	return NewMatrix(labels, d)
}

// Dist returns the distance between two labels. Unknown labels yield
// +Inf (maximally distant) and ok = false rather than an error, so a
// stray category in the data degrades gracefully to "completely wrong".
func (m *Matrix) Dist(a, b string) (d float64, ok bool) {
	i, iok := m.index[a]
	j, jok := m.index[b]
	if !iok || !jok {
		return math.Inf(1), false
	}
	return m.d[i][j], true
}

// Rank returns the rank of a label (its index in declaration order), or
// -1 if unknown. Sliders for ordinal types move over these ranks.
func (m *Matrix) Rank(label string) int {
	if i, ok := m.index[label]; ok {
		return i
	}
	return -1
}

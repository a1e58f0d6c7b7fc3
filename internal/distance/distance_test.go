package distance

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAbsSignedRelative(t *testing.T) {
	if Abs(3, 5) != 2 || Abs(5, 3) != 2 {
		t.Error("Abs")
	}
	if Signed(3, 5) != -2 || Signed(5, 3) != 2 {
		t.Error("Signed")
	}
	if Relative(0, 0) != 0 {
		t.Error("Relative(0,0)")
	}
	if got := Relative(90, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Relative(90,100) = %v", got)
	}
	if Relative(-5, 5) != 2 { // |a−b|/max(|a|,|b|) = 10/5, the [0,2] extreme
		t.Errorf("Relative(-5,5) = %v", Relative(-5, 5))
	}
}

func TestToRange(t *testing.T) {
	cases := []struct {
		v, lo, hi float64
		want      float64
	}{
		{5, 0, 10, 0},
		{0, 0, 10, 0},
		{10, 0, 10, 0},
		{-3, 0, 10, 3},
		{14, 0, 10, 4},
		{5, 15, math.Inf(1), 10},   // Temperature > 15 predicate, v=5
		{20, 15, math.Inf(1), 0},   // fulfilled
		{70, math.Inf(-1), 60, 10}, // Humidity < 60, v=70
	}
	for _, c := range cases {
		if got := ToRange(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("ToRange(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
	if !math.IsNaN(ToRange(math.NaN(), 0, 1)) {
		t.Error("NaN should propagate")
	}
}

func TestToRangeSigned(t *testing.T) {
	if got := ToRangeSigned(-3, 0, 10); got != -3 {
		t.Errorf("below: %v", got)
	}
	if got := ToRangeSigned(14, 0, 10); got != 4 {
		t.Errorf("above: %v", got)
	}
	if got := ToRangeSigned(5, 0, 10); got != 0 {
		t.Errorf("inside: %v", got)
	}
	if !math.IsNaN(ToRangeSigned(math.NaN(), 0, 1)) {
		t.Error("NaN should propagate")
	}
}

// Property: |ToRangeSigned| == ToRange for finite values.
func TestToRangeSignedMagnitude(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) || math.IsInf(v, 0) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return math.Abs(ToRangeSigned(v, lo, hi)) == ToRange(v, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInverseCount(t *testing.T) {
	if InverseCount(4) != 0.25 {
		t.Error("InverseCount(4)")
	}
	if !math.IsInf(InverseCount(0), 1) || !math.IsInf(InverseCount(-2), 1) {
		t.Error("no partners should be infinitely distant")
	}
}

func TestMatrixValidation(t *testing.T) {
	_, err := NewMatrix(nil, nil)
	if err == nil {
		t.Error("empty labels should fail")
	}
	_, err = NewMatrix([]string{"a", "a"}, [][]float64{{0, 1}, {1, 0}})
	if err == nil {
		t.Error("duplicate labels should fail")
	}
	_, err = NewMatrix([]string{"a", "b"}, [][]float64{{0, 1}})
	if err == nil {
		t.Error("wrong row count should fail")
	}
	_, err = NewMatrix([]string{"a", "b"}, [][]float64{{0, 1}, {2, 0}})
	if err == nil {
		t.Error("asymmetry should fail")
	}
	_, err = NewMatrix([]string{"a", "b"}, [][]float64{{1, 1}, {1, 0}})
	if err == nil {
		t.Error("nonzero diagonal should fail")
	}
	_, err = NewMatrix([]string{"a", "b"}, [][]float64{{0, -1}, {-1, 0}})
	if err == nil {
		t.Error("negative entry should fail")
	}
	_, err = NewMatrix([]string{"a", "b"}, [][]float64{{0, math.NaN()}, {math.NaN(), 0}})
	if err == nil {
		t.Error("NaN entry should fail")
	}
}

func TestMatrixDist(t *testing.T) {
	m, err := NewMatrix([]string{"low", "mid", "high"}, [][]float64{
		{0, 1, 4},
		{1, 0, 1},
		{4, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := m.Dist("low", "high"); !ok || d != 4 {
		t.Errorf("low-high: %v %v", d, ok)
	}
	if d, ok := m.Dist("mid", "mid"); !ok || d != 0 {
		t.Errorf("mid-mid: %v %v", d, ok)
	}
	if d, ok := m.Dist("low", "unknown"); ok || !math.IsInf(d, 1) {
		t.Errorf("unknown label: %v %v", d, ok)
	}
	if m.Rank("mid") != 1 || m.Rank("nope") != -1 {
		t.Error("Rank")
	}
}

func TestOrdinalAndDiscrete(t *testing.T) {
	o, err := Ordinal([]string{"cold", "mild", "warm", "hot"})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := o.Dist("cold", "hot"); d != 3 {
		t.Errorf("ordinal cold-hot = %v", d)
	}
	if d, _ := o.Dist("mild", "warm"); d != 1 {
		t.Errorf("ordinal mild-warm = %v", d)
	}
	n, err := Discrete([]string{"red", "green", "blue"})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := n.Dist("red", "blue"); d != 1 {
		t.Errorf("discrete red-blue = %v", d)
	}
	if d, _ := n.Dist("red", "red"); d != 0 {
		t.Errorf("discrete red-red = %v", d)
	}
}

func TestLexicographic(t *testing.T) {
	if Lexicographic("abc", "abc") != 0 {
		t.Error("equal strings")
	}
	// "abd" sorts closer to "abc" than "xyz" does.
	if Lexicographic("abc", "abd") >= Lexicographic("abc", "xyz") {
		t.Error("ordering not respected")
	}
	if Lexicographic("", "") != 0 {
		t.Error("empty strings")
	}
}

func TestCharacterWise(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "xyz", 3},
		{"abc", "ab", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3}, // k/s, e/i + 1 extra char
	}
	for _, c := range cases {
		if got := CharacterWise(c.a, c.b); got != c.want {
			t.Errorf("CharacterWise(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubstring(t *testing.T) {
	if Substring("hello", "hello") != 0 {
		t.Error("equal")
	}
	if Substring("", "") != 0 {
		t.Error("both empty are equal")
	}
	if Substring("abc", "") != 1 {
		t.Error("one empty is maximal")
	}
	if Substring("abcdef", "zzabcdzz") >= Substring("abcdef", "xyxyxy") {
		t.Error("shared substring should reduce distance")
	}
	got := Substring("aab", "ab") // LCS "ab" = 2, 1 - 4/5 = 0.2
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Substring(aab, ab) = %v, want 0.2", got)
	}
}

func TestEdit(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Edit(c.a, c.b); got != c.want {
			t.Errorf("Edit(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if EditNormalized("", "") != 0 {
		t.Error("EditNormalized empty")
	}
	if got := EditNormalized("kitten", "sitting"); math.Abs(got-3.0/7.0) > 1e-12 {
		t.Errorf("EditNormalized = %v", got)
	}
}

// Property: Edit is a metric — symmetric, zero iff equal, triangle
// inequality (spot-checked on short random strings).
func TestEditMetricProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		if len(c) > 12 {
			c = c[:12]
		}
		ab, ba := Edit(a, b), Edit(b, a)
		if ab != ba {
			return false
		}
		if (ab == 0) != (a == b) {
			return false
		}
		return Edit(a, c) <= ab+Edit(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoundex(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"}, // H transparent between S and C
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"", "0000"},
		{"123", "0000"},
	}
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPhonetic(t *testing.T) {
	if Phonetic("Smith", "Smyth") != 0 {
		t.Error("homophones should have distance 0")
	}
	if Phonetic("Smith", "Jones") == 0 {
		t.Error("distinct names should differ")
	}
}

func TestHaversine(t *testing.T) {
	// Munich (48.137, 11.575) to Augsburg (48.371, 10.898): ~57.6 km.
	d := Haversine(48.137, 11.575, 48.371, 10.898)
	if d < 50000 || d > 65000 {
		t.Errorf("Munich-Augsburg = %v m", d)
	}
	if Haversine(10, 20, 10, 20) != 0 {
		t.Error("zero distance")
	}
	// Antipodal points ≈ π·R.
	d = Haversine(0, 0, 0, 180)
	if math.Abs(d-math.Pi*EarthRadiusMeters) > 1000 {
		t.Errorf("antipodal = %v", d)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	f, err := r.Numeric("abs")
	if err != nil || f(1, 4) != 3 {
		t.Fatalf("builtin abs: %v", err)
	}
	if _, err := r.Numeric("nope"); err == nil {
		t.Error("unknown numeric should error")
	}
	s, err := r.String("phonetic")
	if err != nil || s("Smith", "Smyth") != 0 {
		t.Fatalf("builtin phonetic: %v", err)
	}
	if _, err := r.String("nope"); err == nil {
		t.Error("unknown string should error")
	}
	r.RegisterNumeric("half", func(a, b float64) float64 { return math.Abs(a-b) / 2 })
	h, err := r.Numeric("half")
	if err != nil || h(0, 8) != 4 {
		t.Fatalf("custom: %v", err)
	}
}

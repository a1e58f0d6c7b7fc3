package binenc

import (
	"errors"
	"math"
	"testing"
)

// TestRoundTrip writes one of everything and reads it back bit for
// bit, including the float payloads shortest-decimal formats lose.
func TestRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{0, negZero, 1.5, math.Inf(1), math.Inf(-1), nanPayload, math.SmallestNonzeroFloat64}

	var b []byte
	b = append(b, 0xab)
	b = U32(b, math.MaxUint32)
	b = U64(b, math.MaxUint64)
	b = F64(b, nanPayload)
	b = Str(b, "")
	b = Str(b, "héllo\x00")
	b = F64s(b, floats)
	b = F64s(b, nil)
	b = U32(b, 7)

	r := NewReader(b)
	if got := r.Remaining(); got != len(b) {
		t.Fatalf("Remaining before any read = %d, want %d", got, len(b))
	}
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x", got)
	}
	if got := r.U32(); got != math.MaxUint32 {
		t.Errorf("U32 = %d", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(nanPayload) {
		t.Errorf("F64 bits = %#x", math.Float64bits(got))
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if got := r.Str(); got != "héllo\x00" {
		t.Errorf("Str = %q", got)
	}
	gotF := r.F64s()
	if len(gotF) != len(floats) {
		t.Fatalf("F64s len = %d, want %d", len(gotF), len(floats))
	}
	for i := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] bits = %#x, want %#x", i, math.Float64bits(gotF[i]), math.Float64bits(floats[i]))
		}
	}
	if got := r.F64s(); got != nil {
		t.Errorf("nil F64s decoded as %v", got)
	}
	if r.Done() {
		t.Error("Done with 4 bytes left")
	}
	if got := r.Remaining(); got != 4 {
		t.Errorf("Remaining = %d, want 4", got)
	}
	if got := r.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if !r.Done() || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("after the last read: Done=%v Err=%v Remaining=%d", r.Done(), r.Err(), r.Remaining())
	}
}

// TestTruncationIsSticky: the first read past the end latches
// ErrTruncated, every later read returns a zero value without moving,
// and Done stays false even though later bytes would have satisfied a
// smaller read.
func TestTruncationIsSticky(t *testing.T) {
	b := U32(nil, 0x01020304)
	b = append(b, 0xff)
	r := NewReader(b)
	if got := r.U64(); got != 0 {
		t.Errorf("U64 over 5 bytes = %d, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", r.Err())
	}
	if got := r.U32(); got != 0 {
		t.Errorf("U32 after a failed read = %#x, want 0 (sticky)", got)
	}
	if got := r.Byte(); got != 0 {
		t.Errorf("Byte after a failed read = %#x, want 0", got)
	}
	if r.Str() != "" || r.F64s() != nil || r.F64() != 0 {
		t.Error("reads after a failed read returned non-zero values")
	}
	if r.Done() {
		t.Error("Done after a failed read")
	}
	if got := r.Remaining(); got != len(b) {
		t.Errorf("a failed read consumed bytes: Remaining = %d, want %d", got, len(b))
	}
}

// TestDeclaredLengthsAreBounded: a length prefix the remaining bytes
// cannot hold is refused before anything is allocated.
func TestDeclaredLengthsAreBounded(t *testing.T) {
	huge := U32(nil, math.MaxUint32)
	for name, read := range map[string]func(*Reader){
		"Str":  func(r *Reader) { r.Str() },
		"F64s": func(r *Reader) { r.F64s() },
	} {
		b := append(append([]byte(nil), huge...), 1, 2, 3)
		var r Reader
		allocs := testing.AllocsPerRun(10, func() {
			r = Reader{b: b} // fresh each run: a latched error would hide the allocation
			read(&r)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations on a 2^32-1 length prefix over 3 bytes", name, allocs)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("%s: Err = %v, want ErrTruncated", name, r.Err())
		}
	}
	// One element short.
	r := NewReader(F64s(nil, []float64{1, 2})[:4+8+7])
	if r.F64s() != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("F64s one byte short: Err = %v", r.Err())
	}
}

func TestDoneNeedsExactConsumption(t *testing.T) {
	if !NewReader(nil).Done() {
		t.Error("empty buffer is not Done")
	}
	r := NewReader([]byte{1, 2})
	r.Byte()
	if r.Done() {
		t.Error("Done with a byte left")
	}
	r.Byte()
	if !r.Done() {
		t.Error("not Done after consuming everything")
	}
	r.Byte()
	if r.Done() {
		t.Error("Done after reading past the end")
	}
}

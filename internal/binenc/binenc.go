// Package binenc holds the tiny append/read helpers the cache-entry
// codecs share: fixed-width little-endian integers, bit-exact float64s
// (via math.Float64bits, so every NaN payload and signed zero survives
// the round trip), and length-prefixed strings and vectors. The format
// carries no self-description — each codec versions its own envelope —
// but the helpers make truncation and overflow failures explicit
// through Reader.Err instead of panics, which is what a network-facing
// decoder needs: a remote cache value is untrusted input.
package binenc

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated is reported by Reader when a read runs past the buffer
// or a declared length is implausible for the remaining bytes.
var ErrTruncated = errors.New("binenc: truncated or corrupt value")

// U64 appends v little-endian.
func U64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// U32 appends v little-endian.
func U32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// F64 appends the IEEE bits of v — bit-exact, not shortest-decimal.
func F64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Str appends a u32 length prefix and the bytes of s.
func Str(b []byte, s string) []byte {
	b = U32(b, uint32(len(s)))
	return append(b, s...)
}

// F64s appends a u32 count prefix and the IEEE bits of every element.
// A nil slice encodes as count 0 and decodes as nil.
func F64s(b []byte, v []float64) []byte {
	b = U32(b, uint32(len(v)))
	for _, f := range v {
		b = F64(b, f)
	}
	return b
}

// Reader consumes a buffer written with the append helpers. The first
// failed read latches Err; subsequent reads return zero values, so a
// decoder can read a whole envelope and check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps b; the Reader does not copy and must not outlive it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done reports whether the buffer was consumed exactly, with no error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.b) }

// Remaining reports how many bytes are left to read — what a decoder
// checks a declared element count against before it allocates.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// F64 reads IEEE float64 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a count-prefixed float64 vector; count 0 returns nil. The
// declared count is validated against the remaining bytes before
// allocating, so a corrupt length cannot force a huge allocation.
func (r *Reader) F64s() []float64 {
	n := int(r.U32())
	if n == 0 || r.err != nil {
		return nil
	}
	if len(r.b)-r.off < 8*n {
		r.err = ErrTruncated
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = r.F64()
	}
	return v
}

package relevance

import (
	"fmt"
	"math"

	"repro/internal/binenc"
)

// This file is the wire codec for the package's immutable index types —
// LeafQuantiles, LeafChunkStats, and InteriorEntry — so a networked
// shared tier can move them between processes. Two properties matter:
//
//   - Bit-exactness. Every float travels as its IEEE bits (binenc.F64),
//     so the decoded index answers Range/NormParams queries with the
//     same float64s the original produced — the fleet-wide bitwise-
//     identity guarantee rests on this.
//
//   - Derived state is rebuilt, not shipped. An InteriorEntry's
//     histogram sketch and memo are deterministic functions of the raw
//     vector and scans; re-deriving them locally keeps the envelope at
//     roughly the raw vector's size and makes it impossible for a
//     stale sketch to disagree with its vector.
//
// Each envelope starts with a one-byte version so formats can evolve
// independently of the KV layer, which sees only opaque bytes.

const (
	leafQuantilesVersion  = 1
	leafChunkStatsVersion = 1
	interiorEntryVersion  = 1
)

// AppendLeafQuantiles appends q's envelope to b.
func AppendLeafQuantiles(b []byte, q *LeafQuantiles) []byte {
	b = append(b, leafQuantilesVersion)
	b = binenc.F64(b, q.minFinite)
	b = binenc.U32(b, uint32(q.nNegInf))
	b = binenc.U32(b, uint32(q.nNaN))
	return binenc.F64s(b, q.sorted)
}

// DecodeLeafQuantiles consumes from r an envelope AppendLeafQuantiles
// produced for a leaf of rows rows. Another process wrote the bytes and
// Range trusts the array blindly: anything but an ascending run of at
// most rows finite values headed by minFinite is refused.
func DecodeLeafQuantiles(r *binenc.Reader, rows int) (*LeafQuantiles, error) {
	if ver := r.Byte(); ver != leafQuantilesVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("relevance: leaf-quantiles codec version %d", ver)
	}
	q := &LeafQuantiles{}
	q.minFinite = r.F64()
	q.nNegInf = r.Int()
	q.nNaN = r.Int()
	q.sorted = r.F64s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A leading -Inf and any NaN fail the comparison; of an ascending
	// run only the last value can be +Inf.
	first, prev, asc := math.Inf(1), -math.MaxFloat64, true
	for i, v := range q.sorted {
		if i == 0 {
			first = v
		}
		asc, prev = asc && prev <= v, v
	}
	if !asc || math.IsInf(prev, 1) || q.minFinite != first || len(q.sorted)+q.nNegInf+q.nNaN > rows {
		return nil, fmt.Errorf("relevance: leaf-quantiles index is not an ascending run of finite values headed by its minimum, or outgrows its leaf")
	}
	return q, nil
}

// AppendLeafChunkStats appends s's envelope to b.
func AppendLeafChunkStats(b []byte, s *LeafChunkStats) []byte {
	b = append(b, leafChunkStatsVersion)
	b = binenc.F64s(b, s.mins)
	return binenc.I32s(b, s.nans)
}

// DecodeLeafChunkStats decodes an envelope produced by
// AppendLeafChunkStats for a leaf of rows rows, consuming it from r.
func DecodeLeafChunkStats(r *binenc.Reader, rows int) (*LeafChunkStats, error) {
	if ver := r.Byte(); ver != leafChunkStatsVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("relevance: leaf-chunk-stats codec version %d", ver)
	}
	s := &LeafChunkStats{}
	s.mins = r.F64s()
	s.nans = r.I32s()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(s.nans) != len(s.mins) || len(s.mins) != (rows+evalChunk-1)/evalChunk {
		return nil, fmt.Errorf("relevance: leaf-chunk-stats of %d/%d chunks for %d rows", len(s.mins), len(s.nans), rows)
	}
	return s, nil
}

func appendRangeScan(b []byte, s rangeScan) []byte {
	b = binenc.U32(b, uint32(s.nFinite))
	b = binenc.U32(b, uint32(s.nNegInf))
	b = binenc.U32(b, uint32(s.nNaN))
	b = binenc.F64(b, s.minFinite)
	return binenc.F64(b, s.maxFinite)
}

func readRangeScan(r *binenc.Reader) rangeScan {
	var s rangeScan
	s.nFinite = r.Int()
	s.nNegInf = r.Int()
	s.nNaN = r.Int()
	s.minFinite = r.F64()
	s.maxFinite = r.F64()
	return s
}

// AppendInteriorEntry appends e's envelope to b: the raw combined
// vector and the per-chunk scans, from which the decoder rebuilds the
// sketch. Safe on live entries — all encoded fields are immutable
// after construction.
func AppendInteriorEntry(b []byte, e *InteriorEntry) []byte {
	b = append(b, interiorEntryVersion)
	b = binenc.F64s(b, e.raw)
	b = binenc.U32(b, uint32(len(e.scans)))
	for _, s := range e.scans {
		b = appendRangeScan(b, s)
	}
	return appendRangeScan(b, e.total)
}

// DecodeInteriorEntry decodes an envelope produced by
// AppendInteriorEntry and rebuilds the histogram sketch locally. The
// envelope must be the entire remaining input.
func DecodeInteriorEntry(data []byte) (*InteriorEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != interiorEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("relevance: interior-entry codec version %d", ver)
	}
	raw := r.F64s()
	n := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	want := (len(raw) + evalChunk - 1) / evalChunk
	if n != want {
		return nil, fmt.Errorf("relevance: interior entry has %d chunk scans for %d rows (want %d)", n, len(raw), want)
	}
	scans := make([]rangeScan, n)
	for i := range scans {
		scans[i] = readRangeScan(r)
	}
	total := readRangeScan(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	return buildInteriorEntry(raw, scans, total), nil
}

package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/binenc"
	"repro/internal/relevance"
)

// ResultsFrameType is the media type of the binary representation of
// GET /v1/sessions/{id}/results. A client that lists it in Accept (and
// does not ask for tuples) may be answered with a frame instead of
// JSON, and tells the two apart by the response's Content-Type; a
// server that does not know the type answers JSON as it always did.
//
// Layout, all integers little-endian:
//
//	"VRS1"
//	u32 len, len bytes   Summary as JSON (the one schema Timings has)
//	u32 k                displayed rows that follow
//	k × u32              item index per rank
//	k × u64              math.Float64bits of the distance per rank
//
// Row.Relevance is not on the wire: it is
// relevance.RelevanceFactor(distance), which the decoder recomputes
// from the very bits the server would have fed it.
const ResultsFrameType = "application/vnd.visdb.results-frame"

const (
	resultsFrameMagic = "VRS1"
	frameItemBytes    = 4
	frameRowBytes     = frameItemBytes + 8
)

// ErrBadResultsFrame is what DecodeResultsFrame wraps for every input
// it refuses.
var ErrBadResultsFrame = errors.New("wire: malformed results frame")

// ResultsFrame builds one frame in a single buffer sized up front: the
// caller Adds exactly k rows in rank order and sends Bytes.
type ResultsFrame struct {
	buf []byte
	// items and dists are the two columns, windows into buf's spare
	// capacity that the binenc appends fill in place.
	items, dists []byte
}

// NewResultsFrame starts a frame of k rows under sum. It returns nil
// when the picture has no frame representation (item indexes past
// u32); the caller then answers JSON, which always has one.
func NewResultsFrame(sum Summary, k int) *ResultsFrame {
	if k < 0 || uint64(sum.N) > math.MaxUint32 {
		return nil
	}
	js, err := json.Marshal(sum)
	if err != nil {
		return nil
	}
	head := len(resultsFrameMagic) + 4 + len(js) + 4
	buf := make([]byte, 0, head+k*frameRowBytes)
	buf = append(buf, resultsFrameMagic...)
	buf = binenc.Str(buf, string(js))
	buf = binenc.U32(buf, uint32(k))
	mid := head + k*frameItemBytes
	return &ResultsFrame{
		buf:   buf,
		items: buf[head:head:mid],
		dists: buf[mid:mid:cap(buf)],
	}
}

// Add appends the next rank's row.
func (f *ResultsFrame) Add(item int, distance float64) {
	f.items = binenc.U32(f.items, uint32(item))
	f.dists = binenc.F64(f.dists, distance)
}

// Bytes returns the finished frame. It panics unless exactly the k rows
// announced to NewResultsFrame were added — a short frame would decode
// as garbage rows, and only a bug in the caller can produce one.
func (f *ResultsFrame) Bytes() []byte {
	if len(f.items) != cap(f.items) || len(f.dists) != cap(f.dists) {
		panic("wire: ResultsFrame row count differs from the announced k")
	}
	return f.buf[:cap(f.buf)]
}

// DecodeResultsFrame parses a frame from an untrusted peer. The row
// count is checked against the bytes actually present before anything
// is allocated, and bytes after the last row are an error.
func DecodeResultsFrame(b []byte) (ResultsResponse, error) {
	if len(b) < len(resultsFrameMagic) || string(b[:len(resultsFrameMagic)]) != resultsFrameMagic {
		return ResultsResponse{}, fmt.Errorf("%w: bad magic", ErrBadResultsFrame)
	}
	r := binenc.NewReader(b[len(resultsFrameMagic):])
	js := r.Str()
	k := uint64(r.U32())
	if r.Err() != nil {
		return ResultsResponse{}, fmt.Errorf("%w: %v", ErrBadResultsFrame, r.Err())
	}
	if rest := uint64(r.Remaining()); rest != k*frameRowBytes {
		return ResultsResponse{}, fmt.Errorf("%w: %d rows declared, %d bytes follow", ErrBadResultsFrame, k, rest)
	}
	var out ResultsResponse
	if err := json.Unmarshal([]byte(js), &out.Summary); err != nil {
		return ResultsResponse{}, fmt.Errorf("%w: summary: %v", ErrBadResultsFrame, err)
	}
	out.Rows = make([]Row, k)
	for i := range out.Rows {
		out.Rows[i].Item = int(r.U32())
	}
	for i := range out.Rows {
		d := r.F64()
		out.Rows[i].Distance = d
		out.Rows[i].Relevance = relevance.RelevanceFactor(d)
	}
	return out, nil
}

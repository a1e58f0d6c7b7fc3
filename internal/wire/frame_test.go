package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/binenc"
	"repro/internal/relevance"
)

// encodeFrame builds the frame of a decoded response the way the
// server does: one ResultsFrame, rows added in rank order.
func encodeFrame(t testing.TB, res ResultsResponse) []byte {
	t.Helper()
	f := NewResultsFrame(res.Summary, len(res.Rows))
	if f == nil {
		t.Fatalf("NewResultsFrame refused N=%d k=%d", res.Summary.N, len(res.Rows))
	}
	for _, row := range res.Rows {
		f.Add(row.Item, row.Distance)
	}
	return f.Bytes()
}

// sameResults compares bit for bit (reflect.DeepEqual would call two
// NaN distances different).
func sameResults(a, b ResultsResponse) bool {
	if a.Summary != b.Summary || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		x, y := a.Rows[i], b.Rows[i]
		if x.Item != y.Item || x.Tuple != nil || y.Tuple != nil ||
			math.Float64bits(x.Distance) != math.Float64bits(y.Distance) ||
			math.Float64bits(x.Relevance) != math.Float64bits(y.Relevance) {
			return false
		}
	}
	return true
}

func sampleResults() ResultsResponse {
	sum := Summary{N: 200000, Displayed: 4, NumResults: 17, Recalcs: 9,
		Timings: Timings{BindNS: 1, DistancesNS: 2, TotalNS: 123456789, CacheHits: 3, Chunks: 49, SegsSkipped: 28}}
	dists := []float64{0, math.Copysign(0, -1), 0.1, 255}
	res := ResultsResponse{Summary: sum}
	for i, d := range dists {
		res.Rows = append(res.Rows, Row{Item: 199999 - i*7, Distance: d, Relevance: relevance.RelevanceFactor(d)})
	}
	return res
}

func TestResultsFrameRoundTrip(t *testing.T) {
	empty := ResultsResponse{Summary: Summary{N: 3}, Rows: []Row{}}
	for name, want := range map[string]ResultsResponse{"rows": sampleResults(), "empty display": empty} {
		b := encodeFrame(t, want)
		if max := 1024 + 16*len(want.Rows); len(b) > max {
			t.Errorf("%s: frame is %d bytes, budget is 16 B per row + 1 KiB = %d", name, len(b), max)
		}
		got, err := DecodeResultsFrame(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !sameResults(got, want) {
			t.Errorf("%s: round trip differs:\n got %+v\nwant %+v", name, got, want)
		}
		if got.Rows == nil {
			t.Errorf("%s: Rows decoded as nil; the JSON path always yields a non-nil slice", name)
		}
	}
}

// TestResultsFrameSummaryIsJSON pins the one deliberate non-binary
// field: the summary section is exactly json.Marshal(Summary), so a
// Timings field added later reaches frame readers without a second
// schema, and a reader ignores fields it does not know.
func TestResultsFrameSummaryIsJSON(t *testing.T) {
	res := sampleResults()
	b := encodeFrame(t, res)
	r := binenc.NewReader(b[len(resultsFrameMagic):])
	js, _ := json.Marshal(res.Summary)
	if got := r.Str(); got != string(js) {
		t.Fatalf("summary section = %s, want %s", got, js)
	}

	var withExtra map[string]any
	if err := json.Unmarshal(js, &withExtra); err != nil {
		t.Fatal(err)
	}
	withExtra["added_in_a_later_version"] = 1
	js2, _ := json.Marshal(withExtra)
	newer := append([]byte(resultsFrameMagic), binenc.Str(nil, string(js2))...)
	newer = append(newer, b[len(resultsFrameMagic)+4+len(js):]...)
	got, err := DecodeResultsFrame(newer)
	if err != nil {
		t.Fatalf("frame with an unknown summary field refused: %v", err)
	}
	if !sameResults(got, res) {
		t.Errorf("unknown summary field changed the decoded value")
	}
}

func TestNewResultsFrameRefusesWhatItCannotHold(t *testing.T) {
	if f := NewResultsFrame(Summary{N: math.MaxUint32 + 1}, 1); f != nil {
		t.Error("N past u32 got a frame; item indexes would be truncated")
	}
	if f := NewResultsFrame(Summary{N: math.MaxUint32}, 0); f == nil {
		t.Error("N = 2^32-1 refused")
	}
	if f := NewResultsFrame(Summary{}, -1); f != nil {
		t.Error("negative k got a frame")
	}
	defer func() {
		if recover() == nil {
			t.Error("Bytes on a short frame did not panic")
		}
	}()
	f := NewResultsFrame(Summary{N: 10}, 2)
	f.Add(1, 0.5)
	f.Bytes()
}

// frameBoundaries returns the offsets at which each field of a valid
// frame ends: magic, summary length, summary, k, items, distances.
func frameBoundaries(b []byte) []int {
	n := len(resultsFrameMagic)
	jsLen := int(binenc.NewReader(b[n:]).U32())
	k := int(binenc.NewReader(b[n+4+jsLen:]).U32())
	head := n + 4 + jsLen + 4
	return []int{n, n + 4, n + 4 + jsLen, head, head + k*frameItemBytes, len(b)}
}

// malformedFrames are the refusals the decoder owes an untrusted peer,
// by name; they are also the fuzz corpus.
func malformedFrames(t testing.TB) map[string][]byte {
	good := encodeFrame(t, sampleResults())
	bounds := frameBoundaries(good)
	bad := map[string][]byte{
		"empty":            {},
		"wrong magic":      append([]byte("VRS2"), good[4:]...),
		"trailing garbage": append(append([]byte(nil), good...), 0),
		"one byte short":   good[:len(good)-1],
	}
	for i, off := range bounds[:len(bounds)-1] {
		bad["cut at boundary "+string(rune('0'+i))] = good[:off]
	}
	// k = 2^32-1 over the same few rows: the declared count must be
	// checked against the bytes present before it sizes anything.
	hugeK := append([]byte(nil), good...)
	copy(hugeK[bounds[3]-4:], binenc.U32(nil, math.MaxUint32))
	bad["k = 2^32-1"] = hugeK
	// k one too small leaves a row of trailing bytes; one too large runs
	// past the end.
	for name, k := range map[string]uint32{"k too small": 3, "k too large": 5} {
		b := append([]byte(nil), good...)
		copy(b[bounds[3]-4:], binenc.U32(nil, k))
		bad[name] = b
	}
	hugeSummary := append([]byte(nil), good...)
	copy(hugeSummary[bounds[0]:], binenc.U32(nil, math.MaxUint32))
	bad["summary length 2^32-1"] = hugeSummary
	notJSON := append([]byte(nil), good...)
	notJSON[bounds[1]] = '['
	bad["summary is not an object"] = notJSON
	return bad
}

func TestDecodeResultsFrameRefusesMalformed(t *testing.T) {
	for name, b := range malformedFrames(t) {
		res, err := DecodeResultsFrame(b)
		if !errors.Is(err, ErrBadResultsFrame) {
			t.Errorf("%s: err = %v, want ErrBadResultsFrame", name, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s: a refused frame returned %d rows", name, len(res.Rows))
		}
	}
	// The 2^32-1 row count must be refused without sizing anything by it.
	hugeK := malformedFrames(t)["k = 2^32-1"]
	if allocs := testing.AllocsPerRun(10, func() { _, _ = DecodeResultsFrame(hugeK) }); allocs > 8 {
		t.Errorf("refusing k = 2^32-1 cost %v allocations", allocs)
	}
}

// FuzzResultsFrame: on arbitrary bytes the decoder never panics and
// never returns more rows than the input has bytes for; an accepted
// input re-encodes to itself — byte for byte from the row count on, and
// in whole once its summary is in json.Marshal's canonical form (an
// accepted summary may carry whitespace or fields this version does not
// know, which re-encoding normalizes away; the value survives).
func FuzzResultsFrame(f *testing.F) {
	f.Add(encodeFrame(f, sampleResults()))
	f.Add(encodeFrame(f, ResultsResponse{Summary: Summary{N: 1}}))
	for _, b := range malformedFrames(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := DecodeResultsFrame(b)
		if err != nil {
			if !errors.Is(err, ErrBadResultsFrame) {
				t.Fatalf("refusal is not ErrBadResultsFrame: %v", err)
			}
			return
		}
		if len(res.Rows)*frameRowBytes > len(b) {
			t.Fatalf("%d rows out of %d bytes", len(res.Rows), len(b))
		}
		for i, row := range res.Rows {
			if want := relevance.RelevanceFactor(row.Distance); math.Float64bits(row.Relevance) != math.Float64bits(want) {
				t.Fatalf("row %d: relevance %v, want %v", i, row.Relevance, want)
			}
		}
		if uint64(res.Summary.N) > math.MaxUint32 {
			return // accepted, but this summary has no frame of its own (see NewResultsFrame)
		}
		again := encodeFrame(t, res)
		tail := len(b) - len(res.Rows)*frameRowBytes - 4
		if !bytes.Equal(again[len(again)-len(b)+tail:], b[tail:]) {
			t.Fatalf("row section changed on re-encoding")
		}
		back, err := DecodeResultsFrame(again)
		if err != nil || !sameResults(back, res) {
			t.Fatalf("re-encoded frame decodes to a different value (err %v)", err)
		}
		if !bytes.Equal(encodeFrame(t, back), again) {
			t.Fatalf("canonical frame does not re-encode to itself")
		}
	})
}

package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
)

// mapBackend is an in-memory SharedBackend standing in for the network
// KV: what one "node" puts, another gets.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	puts int
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string][]byte)} }

func (b *mapBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBackend) Put(key string, val []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	if _, ok := b.m[key]; !ok {
		b.m[key] = val
	}
}

func TestSharedEntryCodecRoundTrip(t *testing.T) {
	pd := &predicateData{
		Attr:     query.BoundAttr{Table: "T", Attr: "x", Kind: dataset.KindInt},
		Values:   []float64{1, 2, math.NaN(), math.Copysign(0, -1)},
		Raw:      []float64{0, 1, math.Inf(1), 0.25},
		Signed:   []float64{0, -1, math.Inf(-1), 0.25},
		MinDB:    -3,
		MaxDB:    9,
		HasRange: true,
		Lo:       math.Inf(-1),
		Hi:       4.5,
		CStats:   relevance.BuildLeafChunkStats([]float64{0, 1, math.NaN(), 0.25}),
	}
	e := &leafEntry{pd: pd, attr: "x", label: "x>6"}
	data, ok := encodeSharedEntry(e)
	if !ok {
		t.Fatal("materialized cond entry refused")
	}
	got, err := decodeSharedEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.attr != e.attr || got.label != e.label {
		t.Fatalf("handles: %q/%q", got.attr, got.label)
	}
	g := got.pd
	if g.Attr != pd.Attr || g.MinDB != pd.MinDB || g.MaxDB != pd.MaxDB ||
		g.HasRange != pd.HasRange || g.Hi != pd.Hi || !math.IsInf(g.Lo, -1) {
		t.Fatalf("scalars differ: %+v", g)
	}
	for i := range pd.Values {
		for _, pair := range [][2]float64{{pd.Values[i], g.Values[i]}, {pd.Raw[i], g.Raw[i]}, {pd.Signed[i], g.Signed[i]}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("vector element %d differs", i)
			}
		}
	}
	if g.CStats == nil || g.CStats.Chunks() != pd.CStats.Chunks() {
		t.Fatalf("chunk stats lost")
	}

	// Dists-only entries round-trip too.
	de := &leafEntry{dists: []float64{3, math.NaN(), 1}, label: "J:T-U"}
	data, ok = encodeSharedEntry(de)
	if !ok {
		t.Fatal("dists entry refused")
	}
	got, err = decodeSharedEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.dists) != 3 || got.label != de.label {
		t.Fatalf("dists entry mangled: %+v", got)
	}

	// Corruption surfaces as an error, not a bogus entry.
	if _, err := decodeSharedEntry(data[:len(data)-2]); err == nil {
		t.Fatal("truncated entry decoded")
	}
	if _, err := decodeSharedEntry(append(append([]byte(nil), data...), 1)); err == nil {
		t.Fatal("padded entry decoded")
	}
}

// TestSharedEntryCodecRefusesPushdownState: a leaf still carrying
// segment-pushdown state (lazily materialized Values backed by a local
// file reader) must never leave the process.
func TestSharedEntryCodecRefusesPushdownState(t *testing.T) {
	pd := &predicateData{
		Attr: query.BoundAttr{Table: "T", Attr: "x"},
		Raw:  []float64{0, 0}, Values: []float64{0, 0},
		skip: []bool{true},
	}
	if _, ok := encodeSharedEntry(&leafEntry{pd: pd}); ok {
		t.Fatal("pushdown-state entry encoded")
	}
}

// TestRemoteBackendWarmsOtherNode: two shared tiers (two "processes")
// over the same catalog and one backend. Work paid on node A — leaf
// vectors, promoted quantile indexes, interior entries — serves node B
// without recomputation, bit-identically.
func TestRemoteBackendWarmsOtherNode(t *testing.T) {
	// The query needs a non-root interior node (the AND under the OR):
	// the deferred root itself is never interior-cached, so only a
	// nested subtree exercises the interior-entry transfer.
	cat := interiorCatalog(t, 2*4096+57)
	sql := interiorSQL
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 8, GridH: 8})
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	backend := newMapBackend()
	opts := SharedOptions{AdmitMinCost: -1, Backend: backend}

	// Node A: first run fills the backend; second run promotes the leaf
	// indexes (and the interior entries were offered on the first).
	scA := NewSharedCacheOpts(opts)
	eA := New(cat, nil, Options{GridW: 8, GridH: 8})
	cA := NewRunCache()
	cA.AttachShared(scA)
	if _, err := eA.RunCached(q, cA); err != nil {
		t.Fatal(err)
	}
	if _, err := eA.RunCached(q, cA); err != nil {
		t.Fatal(err)
	}
	if st := scA.Stats(); st.RemotePuts == 0 {
		t.Fatalf("node A offered nothing to the fleet: %+v", st)
	}
	backend.mu.Lock()
	stored := len(backend.m)
	backend.mu.Unlock()
	if stored == 0 {
		t.Fatal("backend holds no entries")
	}

	// Node B: a different process — fresh engine, fresh caches — whose
	// very first run is served by the fleet: leaves arrive as shared
	// hits (no local compute), interior entries as sketch hits.
	scB := NewSharedCacheOpts(opts)
	eB := New(cat, nil, Options{GridW: 8, GridH: 8})
	cB := NewRunCache()
	cB.AttachShared(scB)
	q2, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	first, err := eB.RunCached(q2, cB)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, first)
	if first.Timings.CacheMisses != 0 {
		t.Fatalf("node B recomputed %d leaves despite the fleet tier", first.Timings.CacheMisses)
	}
	if first.Timings.SharedHits == 0 || first.Timings.SketchHits == 0 {
		t.Fatalf("node B cold run not fleet-warmed: %+v", first.Timings)
	}
	st := scB.Stats()
	if st.RemoteHits == 0 {
		t.Fatalf("node B counted no remote hits: %+v", st)
	}

	// Node B's second run builds no quantile index either — it reuses
	// the ones node A promoted.
	before := scB.Stats().RemoteHits
	second, err := eB.RunCached(q2, cB)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, second)
	if after := scB.Stats().RemoteHits; after <= before {
		t.Fatalf("promoted indexes not fetched remotely: %d -> %d", before, after)
	}
}

// TestRemoteBackendDegradesToMiss: a backend full of garbage (or
// answering nothing) must never break a run — decode failures fall back
// to local compute with identical results.
func TestRemoteBackendDegradesToMiss(t *testing.T) {
	cat := smallCatalog(t)
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 8, GridH: 8})
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	backend := newMapBackend()
	sc := NewSharedCacheOpts(SharedOptions{AdmitMinCost: -1, Backend: backend})
	c := NewRunCache()
	c.AttachShared(sc)
	res, err := e.RunCached(q, c)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, res)

	// Poison every stored value and warm a fresh node: decodes fail,
	// computes happen locally, results stay right.
	backend.mu.Lock()
	for k := range backend.m {
		backend.m[k] = []byte{0xde, 0xad}
	}
	backend.mu.Unlock()
	sc2 := NewSharedCacheOpts(SharedOptions{AdmitMinCost: -1, Backend: backend})
	c2 := NewRunCache()
	c2.AttachShared(sc2)
	e2 := New(cat, nil, Options{GridW: 8, GridH: 8})
	res2, err := e2.RunCached(q, c2)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, res2)
	if st := sc2.Stats(); st.RemoteMisses == 0 {
		t.Fatalf("poisoned values should count as remote misses: %+v", st)
	}
}

// TestRemoteIndexesAreValidated: a promoted index arrives from another
// process; one that is not an ascending run of finite values headed by
// its minimum, counts more values than the leaf has rows, or brings
// chunk stats of another chunking would silently move DMax fleet-wide.
// Each such value must be a remote miss answered by a local rebuild.
func TestRemoteIndexesAreValidated(t *testing.T) {
	const key = "C|leaf"
	dists := make([]float64, relevance.EvalChunk+3)
	for i := range dists {
		dists[i] = float64((i*7919)%1000) / 8
	}
	dists[5], dists[6] = math.NaN(), math.Inf(-1)
	want, _ := relevance.BuildLeafIndexes(dists)
	sorted := make([]float64, 0, len(dists))
	for _, d := range dists {
		if !math.IsNaN(d) && !math.IsInf(d, 0) {
			sorted = append(sorted, d)
		}
	}
	sort.Float64s(sorted)
	edit := func(f func(s []float64) []float64) []float64 { return f(append([]float64(nil), sorted...)) }
	cases := []struct {
		name       string
		minFinite  float64
		sorted     []float64
		nNaN, cmin int
		cut        int // bytes dropped from the envelope's end
		hit        bool
	}{
		{name: "genuine", sorted: sorted, nNaN: 1, cmin: 2, hit: true},
		{name: "two values swapped", sorted: edit(func(s []float64) []float64 { s[10], s[len(s)-10] = s[len(s)-10], s[10]; return s }), nNaN: 1, cmin: 2},
		{name: "NaN injected", sorted: edit(func(s []float64) []float64 { s[100] = math.NaN(); return s }), nNaN: 1, cmin: 2},
		{name: "+Inf at the end", sorted: edit(func(s []float64) []float64 { s[len(s)-1] = math.Inf(1); return s }), nNaN: 1, cmin: 2},
		{name: "-Inf at the head", minFinite: math.Inf(-1), sorted: edit(func(s []float64) []float64 { s[0] = math.Inf(-1); return s }), nNaN: 1, cmin: 2},
		{name: "minimum disagrees", minFinite: -4, sorted: sorted, nNaN: 1, cmin: 2},
		{name: "more values than rows", sorted: sorted, nNaN: 3, cmin: 2},
		{name: "wrong chunk count", sorted: sorted, nNaN: 1, cmin: 3},
		{name: "truncated envelope", sorted: sorted, nNaN: 1, cmin: 2, cut: 5},
	}
	for _, tc := range cases {
		b := []byte{sharedEntryVersion, 1} // envelope, leaf-quantiles codec
		b = binenc.F64(b, tc.minFinite)
		b = binenc.U32(b, 1) // one -Inf
		b = binenc.U32(b, uint32(tc.nNaN))
		b = binenc.F64s(b, tc.sorted)
		b = append(b, 1, 1) // chunk stats follow, their codec version
		b = binenc.F64s(b, make([]float64, tc.cmin))
		b = binenc.I32s(b, make([]int32, tc.cmin))
		backend := newMapBackend()
		backend.Put(remoteIndexPrefix+key, b[:len(b)-tc.cut])
		sc := NewSharedCacheOpts(SharedOptions{AdmitMinCost: -1, Backend: backend})
		c := NewRunCache()
		c.AttachShared(sc)
		got, cs := c.buildIndexes(key, dists)
		for keep := 0; keep <= len(dists); keep += 97 {
			if g, w := got.Range(keep), want.Range(keep); g != w {
				t.Fatalf("%s: Range(%d) = %+v, want %+v", tc.name, keep, g, w)
			}
		}
		if cs.Chunks() != 2 {
			t.Fatalf("%s: adopted chunk stats of %d chunks", tc.name, cs.Chunks())
		}
		if st := sc.Stats(); (st.RemoteHits == 1) != tc.hit || (st.RemoteMisses == 1) == tc.hit {
			t.Fatalf("%s: remote hits %d, misses %d", tc.name, st.RemoteHits, st.RemoteMisses)
		}
	}
}

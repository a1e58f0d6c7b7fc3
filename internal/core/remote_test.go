package core

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/query"
)

// mapBackend is an in-memory SharedBackend standing in for the network
// KV: what one "node" puts, another gets. It records every key it is
// asked for or handed.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	seen []string
	gets int
	puts int
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string][]byte)} }

func (b *mapBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	b.seen = append(b.seen, key)
	v, ok := b.m[key]
	return v, ok
}

func (b *mapBackend) Put(key string, val []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	b.seen = append(b.seen, key)
	if _, ok := b.m[key]; !ok {
		b.m[key] = val
	}
}

// leafKeys lists the store's keys, failing on any — stored, or so much
// as asked for — that is not a leaf entry's or a 2D axis's: those vectors
// are all the fleet shares, and an interior vector ("I|") never touches
// the backend.
func (b *mapBackend) leafKeys(t *testing.T) []string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, k := range b.seen {
		if !strings.HasPrefix(k, "C|") && !strings.HasPrefix(k, "J|") && !strings.HasPrefix(k, "B|") && !strings.HasPrefix(k, "S|") && !strings.HasPrefix(k, "A|") {
			t.Fatalf("the store saw %q, which is not a leaf entry", k)
		}
	}
	var keys []string
	for k := range b.m {
		keys = append(keys, k)
	}
	return keys
}

// envelope writes a value for the leaf "a > 50" of interiorCatalog by
// hand in the layout of version ver, with vecs as its vectors: raw since
// version 5, (raw, signed) in version 4; version 3 wrote a kind byte and
// the slider scalars ahead of them, versions 1 and 2 two invalidation
// handles ahead of those as well, and version 1's vectors were (values,
// raw, signed).
func envelope(ver byte, vecs ...[]float64) []byte {
	b := []byte{ver}
	if ver < 4 {
		b = append(b, 1) // the condition kind
		if ver < 3 {
			b = binenc.Str(b, "a")
			b = binenc.Str(b, "a > 50")
		}
		b = binenc.Str(b, "S")
		b = binenc.Str(b, "a")
		b = binenc.U32(b, uint32(dataset.KindFloat))
		b = append(b, 1) // HasRange
		for _, f := range []float64{0, 100, 50, math.Inf(1)} {
			b = binenc.F64(b, f)
		}
	}
	for _, v := range vecs {
		b = binenc.F64s(b, v)
	}
	return b
}

func TestSharedEntryCodecRoundTrip(t *testing.T) {
	raw := []float64{0, math.Copysign(0, -1), math.Inf(1), 0.25}
	signed := []float64{0, -1, math.Inf(-1), math.Copysign(0, -1)}
	data := encodeSharedEntry(&leafEntry{raw: raw})
	// v5: the version byte, then the vector's count and elements.
	want := []byte{5, 4, 0, 0, 0}
	for _, f := range raw {
		want = binenc.F64(want, f)
	}
	if !bytes.Equal(data, want) || !bytes.Equal(data, envelope(sharedEntryVersion, raw)) {
		t.Fatalf("v5 layout: got %x", data)
	}
	got, err := decodeSharedEntry(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if math.Float64bits(got.raw[i]) != math.Float64bits(raw[i]) {
			t.Fatalf("raw element %d differs", i)
		}
	}

	// Corruption and another version's layout surface as errors, not
	// bogus entries.
	for name, data := range map[string][]byte{
		"truncated":      data[:len(data)-2],
		"padded":         append(append([]byte(nil), data...), 1),
		"v4":             envelope(4, raw, nil),
		"v4 with signed": envelope(4, raw, signed),
		"v3":             envelope(3, raw, nil),
		"v5 with signed": envelope(sharedEntryVersion, raw, signed),
		"other rows":     envelope(sharedEntryVersion, raw[:3]),
		"version alone":  {sharedEntryVersion},
		"nothing at all": nil,
	} {
		if e, err := decodeSharedEntry(data, 4); err == nil {
			t.Fatalf("%s: decoded %+v", name, e)
		}
	}
}

// FuzzSharedEntry: the one decoder on the kv boundary. Arbitrary bytes
// never panic and never become a vector larger than the input; a value
// that is accepted has its vector rows long and is canonical — it
// encodes back to the bytes it came from.
func FuzzSharedEntry(f *testing.F) {
	raw, signed := []float64{0, 1.5, math.NaN(), math.Inf(1)}, []float64{0, -1.5, math.NaN(), math.Inf(-1)}
	seeds := [][]byte{
		envelope(sharedEntryVersion, raw),
		envelope(sharedEntryVersion, raw, signed), // v5 padded with v4's signed vector
		envelope(sharedEntryVersion, nil),
		envelope(4, raw, nil), // v4: raw, then signed
		envelope(4, raw, signed),
		envelope(3, raw, nil),      // v3: kind and slider scalars first
		envelope(2, raw, signed),   // v2: handles, then v3's payload
		envelope(1, raw, raw, nil), // v1: Values, Raw, Signed
	}
	for _, s := range seeds {
		f.Add(s, uint16(len(raw)))
	}
	// The v5 seed over item spaces one shorter and one longer.
	f.Add(seeds[0], uint16(len(raw)-1))
	f.Add(seeds[0], uint16(len(raw)+1))
	// A cut at every field boundary of the v5 seed — the version byte,
	// the count and each element — and inside the count and each element.
	full := seeds[0]
	for _, cut := range []int{0, 1, 3, 5, 9, 13, 17, 21, 25, 29, 33, len(full) - 1} {
		f.Add(full[:cut], uint16(len(raw)))
	}
	f.Fuzz(func(t *testing.T, data []byte, rows16 uint16) {
		rows := int(rows16)
		e, err := decodeSharedEntry(data, rows)
		if err != nil {
			return
		}
		if len(e.raw) != rows {
			t.Fatalf("accepted a vector of %d for %d rows", len(e.raw), rows)
		}
		if 8*len(e.raw) > len(data) {
			t.Fatalf("%d bytes of vector out of %d bytes of input", 8*len(e.raw), len(data))
		}
		if again := encodeSharedEntry(e); !bytes.Equal(again, data) {
			t.Fatalf("accepted value is not canonical:\n in %x\nout %x", data, again)
		}
	})
}

// remoteLeaf runs sql over cat on a node of its own, an engine under
// opt, and returns what it offered the fleet for the leaf whose key ends
// in suffix.
func remoteLeaf(t *testing.T, cat *dataset.Catalog, opt Options, sql, suffix string) (key string, val []byte) {
	t.Helper()
	backend := newMapBackend()
	c := NewRunCache()
	c.AttachShared(NewSharedCacheOpts(SharedOptions{Backend: backend}))
	if _, err := runCached(New(cat, nil, opt), mustParse(t, sql), c); err != nil {
		t.Fatal(err)
	}
	for _, k := range backend.leafKeys(t) {
		if strings.HasSuffix(k, suffix) {
			return k, backend.m[k]
		}
	}
	t.Fatalf("no leaf %q was offered", suffix)
	return "", nil
}

func mustParse(t *testing.T, sql string) *query.Query {
	t.Helper()
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRemoteLeafOfWrongLengthIsAMiss: the store answers a leaf's key
// with a value that decodes cleanly but is not the vector the key names
// — another catalog's rows, or an envelope of any earlier version (v4's
// with and without its signed vector). Each is a remote miss answered by
// a local compute; none is adopted, so the member's next run and a fresh
// session on it are right too.
func TestRemoteLeafOfWrongLengthIsAMiss(t *testing.T) {
	const rows = 2*4096 + 57
	const sql = `SELECT a FROM S WHERE a > 50 AND b < 40`
	spiral := Options{GridW: 8, GridH: 8}
	twoD := Options{GridW: 8, GridH: 8, Arrangement: Arrange2D, AxisX: "a", AxisY: "b"}
	cat := interiorCatalog(t, rows)
	_, short := remoteLeaf(t, interiorCatalog(t, 10), spiral, sql, "|a > 50")
	_, long := remoteLeaf(t, interiorCatalog(t, rows+3), spiral, sql, "|a > 50")
	zeros := make([]float64, rows) // adopted, these would also move the ranking
	for _, tc := range []struct {
		name     string
		opt      Options
		poisoned []byte
	}{
		{"short", spiral, short},
		{"long", spiral, long},
		{"v1 envelope", spiral, envelope(1, zeros, zeros, nil)},
		{"v2 envelope", spiral, envelope(2, zeros, nil)},
		{"v3 envelope", spiral, envelope(3, zeros, nil)},
		{"v4 envelope", spiral, envelope(4, zeros, nil)},
		{"v4 envelope under a 2D engine", twoD, envelope(4, zeros, zeros)},
	} {
		name := tc.name
		cold, err := New(cat, nil, tc.opt).Run(mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		key, _ := remoteLeaf(t, cat, tc.opt, sql, "|a > 50")
		otherKey, other := remoteLeaf(t, cat, tc.opt, sql, "|b < 40")
		backend := newMapBackend()
		backend.Put(key, tc.poisoned)
		backend.Put(otherKey, other)
		sc := NewSharedCacheOpts(SharedOptions{Backend: backend})
		e := New(cat, nil, tc.opt)
		c := NewRunCache()
		c.AttachShared(sc)
		for run := 0; run < 2; run++ {
			res, err := runCached(e, mustParse(t, sql), c)
			if err != nil {
				t.Fatalf("%s, run %d: %v", name, run, err)
			}
			sameResults(t, cold, res)
		}
		wantMisses := uint64(1)
		if tc.opt.Arrangement == Arrange2D {
			wantMisses += 2 // the axes' signed distances, which nobody stored
		}
		if st := sc.Stats(); st.RemoteMisses != wantMisses || st.RemoteHits != 1 {
			t.Fatalf("%s: remote misses %d, hits %d; want the refusal, the sibling's hit and %d axis misses", name, st.RemoteMisses, st.RemoteHits, wantMisses-1)
		}
		fresh := NewRunCache()
		fresh.AttachShared(sc)
		res, err := runCached(e, mustParse(t, sql), fresh)
		if err != nil {
			t.Fatalf("%s, fresh session: %v", name, err)
		}
		sameResults(t, cold, res)
	}
}

// TestPushdownLeafIsARemoteHit: a leaf computed with skipped segments
// is an ordinary leaf vector and crosses the fleet like any other. Node
// A scans the clustered column t of a file-backed catalog, skipping
// segments; node B — its own handle on the file, its own shared tier,
// the same store — takes the leaf as a remote hit and ranks exactly as
// a fresh FullSort engine does, panel values included.
func TestPushdownLeafIsARemoteHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := dataset.WriteCatalogFile(path, clusteredCatalog(t, 5*dataset.SegmentSize+301)); err != nil {
		t.Fatal(err)
	}
	backend := newMapBackend()
	node := func() (*Engine, *RunCache, *SharedCache) {
		cat := openSegFile(t, path, 1<<16)
		sc := NewSharedCacheOpts(SharedOptions{Backend: backend})
		c := NewRunCache()
		c.AttachShared(sc)
		return New(cat, nil, Options{GridW: 16, GridH: 16}), c, sc
	}
	const sql = `SELECT t FROM C WHERE t BETWEEN 20 AND 80 AND u < 60`
	eA, cA, scA := node()
	resA, err := runCached(eA, mustParse(t, sql), cA)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Timings.SegsSkipped == 0 {
		t.Fatal("node A skipped no segment: the leaf is not a pushdown leaf")
	}
	if st := scA.Stats(); st.RemotePuts != 2 {
		t.Fatalf("node A offered %d leaves, want both", st.RemotePuts)
	}
	backend.leafKeys(t)

	eB, cB, scB := node()
	resB, err := runCached(eB, mustParse(t, sql), cB)
	if err != nil {
		t.Fatal(err)
	}
	if tm := resB.Timings; tm.CacheMisses != 0 || tm.SharedHits != 2 || tm.Segs != 0 {
		t.Fatalf("node B computed: %+v", tm)
	}
	if st := scB.Stats(); st.RemoteHits != 2 || st.RemoteMisses != 0 {
		t.Fatalf("node B: remote hits %d, misses %d", st.RemoteHits, st.RemoteMisses)
	}
	full, err := New(eB.Catalog(), nil, Options{GridW: 16, GridH: 16, FullSort: true}).Run(mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, full, resB)
	samePredicateInfos(t, sql, full, resB)
}

// TestRemoteBackendWarmsOtherNode: two shared tiers (two "processes")
// over the same catalog and one backend. The leaf vectors node A paid
// for serve node B without recomputation, and nothing but leaf vectors
// is in the store: B rebuilds quantile indexes, chunk stats and
// interior entries locally, bit-identically.
func TestRemoteBackendWarmsOtherNode(t *testing.T) {
	cat := interiorCatalog(t, 2*4096+57)
	sql := interiorSQL
	q := mustParse(t, sql)
	e := New(cat, nil, Options{GridW: 8, GridH: 8})
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}

	backend := newMapBackend()
	opts := SharedOptions{Backend: backend}

	// Node A: the first run fills the backend; the second builds the
	// leaf indexes and takes its interior hits, none of which travel.
	scA := NewSharedCacheOpts(opts)
	eA := New(cat, nil, Options{GridW: 8, GridH: 8})
	cA := NewRunCache()
	cA.AttachShared(scA)
	for run := 0; run < 2; run++ {
		if _, err := runCached(eA, q, cA); err != nil {
			t.Fatal(err)
		}
	}
	if st := scA.Stats(); st.RemotePuts != 3 {
		t.Fatalf("node A offered %d values to the fleet, want its 3 leaves: %+v", st.RemotePuts, st)
	}
	if keys := backend.leafKeys(t); len(keys) != 3 {
		t.Fatalf("backend holds %v", keys)
	}

	// Node B: a different process — fresh engine, fresh caches — whose
	// very first run takes every leaf from the fleet.
	scB := NewSharedCacheOpts(opts)
	eB := New(cat, nil, Options{GridW: 8, GridH: 8})
	cB := NewRunCache()
	cB.AttachShared(scB)
	q2 := mustParse(t, sql)
	first, err := runCached(eB, q2, cB)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, first)
	if first.Timings.CacheMisses != 0 || first.Timings.SharedHits != 3 {
		t.Fatalf("node B cold run not fleet-warmed: %+v", first.Timings)
	}
	if st := scB.Stats(); st.RemoteHits != 3 {
		t.Fatalf("node B counted %d remote hits: %+v", st.RemoteHits, st)
	}

	// Node B's warm runs stand on indexes and the interior vector it built
	// itself: the store was asked once per leaf by each node (A's three
	// misses, B's three hits) and for nothing else — a range edit inside
	// the AND part included, which looks up and stores a new part vector
	// in B's tier and asks the fleet for the moved leaf alone.
	for run := 0; run < 2; run++ {
		warm, err := runCached(eB, q2, cB)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, cold, warm)
		if warm.Timings.SketchHits == 0 || warm.Timings.Chunks == 0 {
			t.Fatalf("node B's warm run %d built no local interior entry or chunk stats: %+v", run, warm.Timings)
		}
	}
	query.Predicates(q2.Where)[0].(*query.BoolExpr).Children[0].(*query.Cond).Value = dataset.Float(30)
	edited, err := runCached(eB, q2, cB)
	if err != nil {
		t.Fatal(err)
	}
	if st := scB.Stats(); edited.Timings.CacheMisses != 1 || st.InteriorMisses == 0 || st.Entries != 6 {
		t.Fatalf("node B's range edit: %+v, tier %+v", edited.Timings, st)
	}
	for _, k := range backend.leafKeys(t) {
		if !strings.HasPrefix(k, "C|") {
			t.Fatalf("a query of conditions left %q in the store", k)
		}
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if backend.gets != 7 || backend.puts != 4 {
		t.Fatalf("the store served %d gets and %d puts, want 7 and 4", backend.gets, backend.puts)
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
	sc := NewSharedCacheOpts(SharedOptions{Backend: backend})
	c := NewRunCache()
	c.AttachShared(sc)
	res, err := runCached(e, q, c)
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
	sc2 := NewSharedCacheOpts(SharedOptions{Backend: backend})
	c2 := NewRunCache()
	c2.AttachShared(sc2)
	e2 := New(cat, nil, Options{GridW: 8, GridH: 8})
	res2, err := runCached(e2, q, c2)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, res2)
	if st := sc2.Stats(); st.RemoteMisses == 0 {
		t.Fatalf("poisoned values should count as remote misses: %+v", st)
	}
}

// Package visdb is the public API of the VisDB reproduction — the
// visual feedback query system of Keim, Kriegel & Seidl, "Supporting
// Data Mining of Large Databases by Visual Feedback Queries"
// (ICDE 1994).
//
// VisDB answers a query with a relevance ranking of every data item
// instead of a boolean result set, and paints that ranking
// pixel-per-item: absolutely correct answers in yellow at the window
// center, approximate answers spiraling outward through green, blue and
// red to almost black. One window shows the overall result; one
// positionally-aligned window per selection predicate shows how each
// part of the query contributed.
//
// Quickstart:
//
//	cat := visdb.NewCatalog()
//	tbl, _ := visdb.NewTable("T", visdb.Schema{
//		{Name: "x", Kind: visdb.KindFloat},
//	})
//	tbl.AppendRow(visdb.Float(4.2))
//	cat.AddTable(tbl)
//	eng := visdb.NewEngine(cat, visdb.Options{GridW: 64, GridH: 64})
//	res, _ := eng.RunSQL(`SELECT x FROM T WHERE x > 3`)
//	img, _ := res.Image(2)
//	img.SavePNG("out/result.png")
//
// For interactive exploration (sliders, weights, tuple selection,
// color-range projection, drill-down), open a Session. For synthetic
// workloads matching the paper's scenarios, see the Environmental,
// CADParts and MultiDB generators.
//
// # Performance options
//
// By default the engine ranks with a top-k selection rather than the
// full sort the paper describes as the dominating cost: only the
// display budget (GridW×GridH plus the gap-heuristic margin) is ever
// materialized in order, in expected O(n) time, and Result.Order lists
// that ranked prefix only (Result.TopK extends it to any depth). Set
// Options.FullSort for an exact full ranking of all N items (the
// A-series ablations and exact quantile statistics). A run computes its
// predicates one after another, each one's distance pass chunked across
// every core GOMAXPROCS allows; runs are bit-identical whatever the core
// count.
//
// # Incremental reruns
//
// Sessions recalculate incrementally: per-predicate distance vectors
// are cached across reruns keyed by the condition's structure (table,
// attribute, operator, literals, distance function — weighting factors
// excluded), so dragging a weight slider recomputes nothing below the
// combination stage and dragging one range slider recomputes exactly
// one predicate. Evaluation writes into pooled buffers, hot leaves get
// sorted quantile indexes for O(1) normalization ranges, and
// per-predicate window vectors materialize lazily. Cached reruns are
// bit-identical to cold runs; the trade is that a session's Result is
// valid only until its next modification. Engine.RunCached exposes the
// same machinery for custom loops.
//
// # Concurrent sessions
//
// Many sessions serving different users over one catalog share leaf
// work through a catalog-level SharedCache (NewSessionShared): leaf
// distance vectors, the combined vectors of the query parts over them
// and the quantile indexes of both are computed once per catalog
// with singleflight fills, bounded by an LRU byte budget and by nothing
// else — no edit invalidates, so returning to an earlier range is a hit
// — and every entry is immutable: eviction only unlinks, so concurrent
// readers are never affected. Each
// session stays a single-goroutine state machine; any number may run
// in parallel against one SharedCache, and results remain bit-identical
// to isolated sessions.
//
// # Remote sessions
//
// The same interaction loop is served cross-process by the visdbd
// daemon (cmd/visdbd): catalogs are sharded across serving workers
// and sessions route by catalog, each catalog backed by its own
// SharedCache. The typed HTTP client lives in visdb/client; remote
// results are bitwise identical to in-process sessions, and response
// sizes track the display budget rather than the catalog size.
package visdb

import (
	"repro/internal/baseline"
	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/session"
)

// Storage types: a Catalog holds named Tables and Connections (the
// predefined, parameterizable joins of the query interface).
type (
	Catalog    = dataset.Catalog
	Table      = dataset.Table
	Schema     = dataset.Schema
	Field      = dataset.Field
	Value      = dataset.Value
	Kind       = dataset.Kind
	Connection = dataset.Connection
	ConnMetric = dataset.ConnMetric
	ConnMode   = dataset.ConnMode
)

// Datatype kinds.
const (
	KindFloat   = dataset.KindFloat
	KindInt     = dataset.KindInt
	KindString  = dataset.KindString
	KindTime    = dataset.KindTime
	KindBool    = dataset.KindBool
	KindOrdinal = dataset.KindOrdinal
	KindNominal = dataset.KindNominal
)

// Connection metrics and modes.
const (
	MetricNumeric = dataset.MetricNumeric
	MetricTime    = dataset.MetricTime
	MetricGeo     = dataset.MetricGeo
	MetricString  = dataset.MetricString

	ModeEqual  = dataset.ModeEqual
	ModeTarget = dataset.ModeTarget
	ModeWithin = dataset.ModeWithin
)

// Value constructors.
var (
	Float   = dataset.Float
	Int     = dataset.Int
	Str     = dataset.Str
	TimeVal = dataset.Time
	BoolVal = dataset.Bool
	Ordinal = dataset.Ordinal
	Nominal = dataset.Nominal
	Null    = dataset.Null
)

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return dataset.NewCatalog() }

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema Schema) (*Table, error) {
	return dataset.NewTable(name, schema)
}

// ReadCSV loads a table from CSV (header must match the schema).
var ReadCSV = dataset.ReadCSV

// OpenOptions configures OpenCatalogFile (read backend, cache budget).
type OpenOptions = dataset.OpenOptions

// WriteCatalogFile streams an in-memory catalog into an on-disk
// segment catalog and returns the content-hash epoch stamped into its
// footer; OpenCatalogFile serves a catalog straight from such a file
// through a bounded decoded-segment cache — resident memory is
// O(cache budget), not O(catalog), and query results are bit-identical
// to the in-memory catalog. Close the opened catalog to release the
// backing file. WriteCatalogFile writes the current format only;
// OpenCatalogFile also reads the two older ones (no per-segment stats
// or codecs; the oldest also lacks footer integrity).
var (
	WriteCatalogFile = dataset.WriteCatalogFile
	OpenCatalogFile  = dataset.OpenCatalogFile
)

// Query types.
type (
	Query   = query.Query
	Expr    = query.Expr
	Cond    = query.Cond
	Binding = query.Binding
)

// Parse parses the VisDB query dialect (SQL-like with WEIGHT, USING and
// CONNECT extensions; see the query package for the grammar).
func Parse(src string) (*Query, error) { return query.Parse(src) }

// Gradi renders the GRADI query-representation window (figure 3 of the
// paper) as ASCII art.
func Gradi(q *Query) string { return query.Gradi(q) }

// Predicates returns the top-level selection predicates of a condition
// tree — the parts that get their own visualization windows.
var Predicates = query.Predicates

// Engine types.
type (
	Engine        = core.Engine
	Options       = core.Options
	Result        = core.Result
	PanelStats    = core.PanelStats
	PredicateInfo = core.PredicateInfo
	SelectedTuple = core.SelectedTuple
)

// RunCache is the reuse layer of the incremental feedback loop as one
// loop holds it: the pins of the leaf distance vectors its current
// picture reads (keyed structurally, weighting factors excluded) over
// the SharedCache that stores them — the one attached with
// AttachShared, else a small one of its own — plus pooled evaluation
// buffers. Sessions manage one internally; use an explicit cache with
// Engine.RunCached for custom interaction loops. A Result produced
// through a cache is valid only until the next RunCached on that
// cache.
type RunCache = core.RunCache

// NewRunCache creates an empty cache for Engine.RunCached.
var NewRunCache = core.NewRunCache

// SharedCache is the store of the predicate cache: one instance per
// catalog, shared by any number of concurrent sessions, with
// singleflight fills, immutable entries and LRU + byte-budget eviction
// as the only way an entry leaves. Leaf distance vectors, the raw
// combined vectors of interior query nodes (a cached subtree is a leaf:
// same store, same recency rule, same byte budget) and the quantile
// indexes of both are computed once per catalog instead of once per
// session.
type SharedCache = core.SharedCache

// SharedStats is a snapshot of a SharedCache's counters. Entries, Bytes,
// Fills and Evictions cover leaf and interior vectors alike;
// InteriorHits/InteriorMisses count the lookups of the latter.
type SharedStats = core.SharedStats

// SharedOptions configures a shared tier: entry cap, byte budget and an
// optional remote backend. Every computed leaf is stored; recency alone
// decides what the bounds push out.
type SharedOptions = core.SharedOptions

// NewSharedCache creates a shared tier; zero bounds select the
// defaults (1024 entries, 256 MiB).
var NewSharedCache = core.NewSharedCache

// NewSharedCacheOpts creates a shared tier from SharedOptions: the same
// tier as NewSharedCache's, plus the remote backend if one is set. This
// is what the serving subsystem (internal/server, cmd/visdbd) uses per
// catalog.
var NewSharedCacheOpts = core.NewSharedCacheOpts

// Arrangement kinds.
const (
	ArrangeSpiral = core.ArrangeSpiral
	Arrange2D     = core.Arrange2D
)

// Colormap is a discretized path through color space; set Options.Map
// to override the default 256-level VisDB map.
type Colormap = colormap.Map

// Colormap constructors: the paper's yellow→green→blue→red→black path,
// the gray-scale baseline, a conventional heat path, and the greedy
// JND-maximizing variant of the section 4.2 design task.
var (
	ColormapVisDB     = colormap.VisDB
	ColormapGrayscale = colormap.Grayscale
	ColormapHeat      = colormap.Heat
	ColormapOptimized = colormap.Optimized
)

// Registry of distance functions for custom application distances.
type Registry = distance.Registry

// NewRegistry returns a registry pre-populated with the built-in
// numeric and string distances.
func NewRegistry() *Registry { return distance.NewRegistry() }

// NewEngine creates a query engine over a catalog with built-in
// distances.
func NewEngine(cat *Catalog, opt Options) *Engine {
	return core.New(cat, nil, opt)
}

// NewEngineWithRegistry creates an engine with custom distances.
func NewEngineWithRegistry(cat *Catalog, reg *Registry, opt Options) *Engine {
	return core.New(cat, reg, opt)
}

// Session is the interactive exploration layer (sliders, weights,
// selection, projection, drill-down).
type Session = session.Session

// NewSession opens an interactive session on a query string.
func NewSession(cat *Catalog, opt Options, sql string) (*Session, error) {
	return session.NewSQL(cat, nil, opt, sql)
}

// NewSessionQuery opens a session on a parsed query.
func NewSessionQuery(cat *Catalog, opt Options, q *Query) (*Session, error) {
	return session.New(cat, nil, opt, q)
}

// NewSessionShared opens a session attached to a catalog-level shared
// cache: any number of concurrent sessions on the same catalog share
// leaf distance vectors through it (each session itself remains
// single-goroutine).
func NewSessionShared(cat *Catalog, opt Options, sql string, shared *SharedCache) (*Session, error) {
	return session.NewSQLShared(cat, nil, opt, sql, shared)
}

// Image is the off-screen framebuffer windows render into; it encodes
// to PNG or PPM and previews as ASCII.
type Image = render.Image

// Window is one rendered visualization window.
type Window = render.Window

// Compose lays windows out in a grid (the figure-4 visualization part).
var Compose = render.Compose

// BooleanMatches evaluates a query with traditional exact boolean
// semantics and returns the matching row indices — the comparison
// baseline the paper's motivation argues against.
func BooleanMatches(cat *Catalog, sql string) ([]int, error) {
	return baseline.MatchesSQL(cat, sql)
}

// Synthetic workload generators matching the paper's scenarios.
type (
	EnvConfig     = datagen.EnvConfig
	EnvTruth      = datagen.EnvTruth
	CADConfig     = datagen.CADConfig
	CADTruth      = datagen.CADTruth
	MultiDBConfig = datagen.MultiDBConfig
	MultiDBTruth  = datagen.MultiDBTruth
)

// Environmental generates the weather/air-pollution catalog of
// section 3 with planted correlations, measurement offsets and hot
// spots.
var Environmental = datagen.Environmental

// CADParts generates the 27-parameter CAD table of section 4.5 with
// planted similar parts and the near-miss part boolean queries lose.
var CADParts = datagen.CADParts

// CADQuerySQL builds the boolean allowance query for a generated CAD
// truth.
var CADQuerySQL = datagen.CADQuerySQL

// MultiDB generates two independent person databases with misspelled
// correspondences for the approximate-join scenario of section 4.5.
var MultiDB = datagen.MultiDB

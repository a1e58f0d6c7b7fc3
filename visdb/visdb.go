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
// materialized in order, in expected O(n) time, under either
// arrangement; Result.TopK extends the ranking to any depth. Set
// Options.FullSort for an exact full ranking of all N items (the
// A-series ablations and exact quantile statistics). A run computes its predicates one after another, each
// one's distance pass chunked across every core GOMAXPROCS allows; runs
// are bit-identical whatever the core count.
//
// # Incremental reruns
//
// Sessions recalculate incrementally: per-predicate distance vectors
// are cached across reruns keyed by the condition's structure (table,
// attribute, operator, literals, distance function — weighting factors
// excluded), so dragging a weight slider recomputes nothing below the
// combination stage and dragging one range slider recomputes exactly
// one predicate. Evaluation writes into pooled buffers, every cached
// vector's code plane answers its normalization ranges without a sort,
// and per-predicate window vectors materialize lazily. Cached reruns are
// bit-identical to cold runs; the trade is that a session's Result is
// valid only until its next modification. An Engine's runs share
// nothing: use one for results that must outlive an interaction loop.
//
// # Concurrent sessions
//
// A Session is one user's interface state and is not safe for
// concurrent use; run one goroutine per session. Any number of sessions
// may run in parallel over one catalog. Sessions serving many users
// over one catalog share their leaf work through the catalog-level
// cache of the serving layer (see Remote sessions): there, leaf
// distance vectors and the code planes built on them are computed
// once per catalog, and results remain bit-identical to isolated
// sessions.
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

// OpenOptions configures OpenCatalogFile (the decoded-segment cache
// budget).
type OpenOptions = dataset.OpenOptions

// WriteCatalogFile writes a catalog — resident, or one OpenCatalogFile
// opened — as an on-disk segment catalog and returns the content-hash
// epoch stamped into its footer; it refuses a time outside the years
// 1678–2262 the file stores. OpenCatalogFile serves a catalog straight
// from such a file through a bounded decoded-segment cache — resident
// memory is O(cache budget), not O(catalog), and query results are
// bit-identical to the resident catalog. Close the opened catalog to
// release the backing file. OpenCatalogFile reads the one layout
// WriteCatalogFile writes and refuses the layouts of earlier writers
// with an error that says to rewrite the file (visdbgen -format seg).
var (
	WriteCatalogFile = dataset.WriteCatalogFile
	OpenCatalogFile  = dataset.OpenCatalogFile
)

// Query types.
type (
	Query = query.Query
	Expr  = query.Expr
	Cond  = query.Cond
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

// Plain data the engine reports: the run options, the stats panel, one
// predicate's slider fields, and a selected item's rows.
type (
	Options       = core.Options
	PanelStats    = core.PanelStats
	PredicateInfo = core.PredicateInfo
	SelectedTuple = core.SelectedTuple
)

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

// Engine answers visual feedback queries against a catalog. It is safe
// for concurrent runs; the catalog must not be mutated while queries
// run.
type Engine struct{ e *core.Engine }

// NewEngine creates a query engine over a catalog with built-in
// distances.
func NewEngine(cat *Catalog, opt Options) *Engine {
	return &Engine{core.New(cat, nil, opt)}
}

// NewEngineWithRegistry creates an engine with custom distances.
func NewEngineWithRegistry(cat *Catalog, reg *Registry, opt Options) *Engine {
	return &Engine{core.New(cat, reg, opt)}
}

// RunSQL parses and runs a query in the VisDB dialect.
func (e *Engine) RunSQL(sql string) (*Result, error) { return wrap(e.e.RunSQL(sql)) }

// Run runs a parsed query.
func (e *Engine) Run(q *Query) (*Result, error) { return wrap(e.e.Run(q)) }

// Result is one answered query: the picture — the overall window and
// one window per top-level predicate, the stats panel and the slider
// fields — and the relevance ranking behind it.
type Result struct{ r *core.Result }

func wrap(r *core.Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{r}, nil
}

// Image composes the windows into one image with the given column count
// (2 matches the paper's 2×2 layout for three predicates).
func (r *Result) Image(cols int) (*Image, error) { return r.r.Image(cols) }

// Windows returns the overall window followed by one window per
// top-level selection predicate, every item at the same position in
// each — the visualization part of figure 4.
func (r *Result) Windows() ([]*Window, error) { return r.r.Windows() }

// Stats returns the overall numbers of the stats panel.
func (r *Result) Stats() PanelStats { return r.r.Stats() }

// PredicateInfos returns the slider fields of each top-level predicate.
func (r *Result) PredicateInfos() []PredicateInfo { return r.r.PredicateInfos() }

// TopK returns the item indices of the k most relevant items, most
// relevant first (k is clamped to the item count) — the programmatic
// consumption path for similarity retrieval (section 4.5). Safe for
// concurrent use.
func (r *Result) TopK(k int) []int { return r.r.TopK(k) }

// Relevance returns every item's relevance factor — the inverse of its
// combined distance, 1 for an exact answer — materialized on first call.
func (r *Result) Relevance() []float64 { return r.r.Relevance() }

// Pair returns the (left row, right row) of a cross-product item; ok is
// false for single-table queries or out-of-range items.
func (r *Result) Pair(item int) (left, right int, ok bool) { return r.r.Pair(item) }

// Tuple returns the row(s) behind an item.
func (r *Result) Tuple(item int) (SelectedTuple, error) { return r.r.Tuple(item) }

// Aggregates evaluates the result list's aggregate operators (AVG, SUM,
// MAX, MIN, COUNT) over the exact answers.
func (r *Result) Aggregates() ([]core.AggValue, error) { return r.r.Aggregates() }

// ResultTable materializes the exact answers as a table of the result
// list's plain attributes.
func (r *Result) ResultTable() (*Table, error) { return r.r.ResultTable() }

// sessionCore names the interactive layer for embedding: Session gets
// its methods without exporting the field.
type sessionCore = session.Session

// Session is the interactive exploration layer: range and
// median/deviation sliders, weights, percentage displayed, undo, tuple
// selection, color-range projection, drill-down and the stats panel.
// Its methods refuse a query part that is not in the current query.
// A Session is not safe for concurrent use.
type Session struct{ *sessionCore }

// Result returns the current result, valid until the next modification.
// When auto-recalculate is off and modifications are pending it is
// stale (Dirty reports true).
func (s *Session) Result() *Result { return &Result{s.sessionCore.Result()} }

// NewSession opens an interactive session on a query string.
func NewSession(cat *Catalog, opt Options, sql string) (*Session, error) {
	s, err := session.NewSQL(cat, nil, opt, sql)
	if err != nil {
		return nil, err
	}
	return &Session{s}, nil
}

// NewSessionQuery opens a session on a parsed query.
func NewSessionQuery(cat *Catalog, opt Options, q *Query) (*Session, error) {
	s, err := session.New(cat, nil, opt, q)
	if err != nil {
		return nil, err
	}
	return &Session{s}, nil
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

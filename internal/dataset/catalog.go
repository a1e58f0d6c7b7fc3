package dataset

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/distance"
)

// ConnMetric selects how a connection measures the difference between
// its left and right join attributes.
type ConnMetric int

const (
	// MetricNumeric compares the attributes as numbers.
	MetricNumeric ConnMetric = iota
	// MetricTime compares time attributes in seconds.
	MetricTime
	// MetricGeo compares (lat, lon) attribute pairs in meters.
	MetricGeo
	// MetricString compares string attributes with a registered string
	// distance (connection Param selects nothing; StringFunc applies).
	MetricString
)

// ConnMode selects how the raw attribute difference Δ turns into a join
// distance.
type ConnMode int

const (
	// ModeEqual targets Δ = 0: distance = |Δ| (the `at-same-location`
	// and `at-same-time-as` connections of figure 3).
	ModeEqual ConnMode = iota
	// ModeTarget targets Δ = Param: distance = ||Δ| − Param| (the
	// `with-time-diff(min)` connection: the example query wants a time
	// difference of exactly two hours).
	ModeTarget
	// ModeWithin targets Δ ≤ Param: distance = max(0, |Δ| − Param)
	// (the `with-distance(m)` connection).
	ModeWithin
)

// Connection is a named, parameterizable join defined in the catalog by
// the database designer prior to use (section 4.1). Its Distance method
// scores how closely a (left row, right row) pair fulfills the join —
// the heart of the approximate joins of section 4.4.
type Connection struct {
	Name  string
	Left  string // left table name
	Right string // right table name
	// Attribute names; LeftAttr2/RightAttr2 are only used by MetricGeo
	// (longitude companions to the latitude attributes).
	LeftAttr   string
	RightAttr  string
	LeftAttr2  string
	RightAttr2 string
	Metric     ConnMetric
	Mode       ConnMode
	// Param is interpreted per Mode. For MetricTime it is in minutes,
	// matching the paper's `with-time-diff(min)`; for MetricGeo meters.
	Param float64
	// StringDist names a registered string distance for MetricString.
	StringDist string
}

// Validate checks structural completeness of the connection.
func (c Connection) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("dataset: connection needs a name")
	}
	if c.Left == "" || c.Right == "" {
		return fmt.Errorf("dataset: connection %s needs two tables", c.Name)
	}
	if c.LeftAttr == "" || c.RightAttr == "" {
		return fmt.Errorf("dataset: connection %s needs join attributes", c.Name)
	}
	if c.Metric == MetricGeo && (c.LeftAttr2 == "" || c.RightAttr2 == "") {
		return fmt.Errorf("dataset: geo connection %s needs longitude attributes", c.Name)
	}
	if c.Param < 0 {
		return fmt.Errorf("dataset: connection %s has negative parameter", c.Name)
	}
	return nil
}

// modeApply turns a raw absolute difference into the connection's
// distance according to Mode and Param.
func (c Connection) modeApply(absDelta float64) float64 {
	switch c.Mode {
	case ModeTarget:
		return math.Abs(absDelta - c.paramBase())
	case ModeWithin:
		d := absDelta - c.paramBase()
		if d < 0 {
			return 0
		}
		return d
	default:
		return absDelta
	}
}

// paramBase converts Param to base units (seconds for time, meters for
// geo, raw otherwise).
func (c Connection) paramBase() float64 {
	if c.Metric == MetricTime {
		return c.Param * 60 // minutes → seconds
	}
	return c.Param
}

// Distance scores rows li of lt against ri of rt. Null join attributes
// yield NaN (uncolorable). reg resolves string distances and may be nil
// for non-string metrics.
func (c Connection) Distance(lt, rt *Table, li, ri int, reg *distance.Registry) (float64, error) {
	switch c.Metric {
	case MetricGeo:
		lat1, err := tableFloat(lt, li, c.LeftAttr)
		if err != nil {
			return 0, err
		}
		lon1, err := tableFloat(lt, li, c.LeftAttr2)
		if err != nil {
			return 0, err
		}
		lat2, err := tableFloat(rt, ri, c.RightAttr)
		if err != nil {
			return 0, err
		}
		lon2, err := tableFloat(rt, ri, c.RightAttr2)
		if err != nil {
			return 0, err
		}
		if anyNaN(lat1, lon1, lat2, lon2) {
			return math.NaN(), nil
		}
		return c.modeApply(distance.Haversine(lat1, lon1, lat2, lon2)), nil
	case MetricString:
		lv, err := lt.Value(li, c.LeftAttr)
		if err != nil {
			return 0, err
		}
		rv, err := rt.Value(ri, c.RightAttr)
		if err != nil {
			return 0, err
		}
		ls, lok := lv.AsString()
		rs, rok := rv.AsString()
		if !lok || !rok {
			return math.NaN(), nil
		}
		name := c.StringDist
		if name == "" {
			name = "edit"
		}
		if reg == nil {
			reg = distance.NewRegistry()
		}
		f, err := reg.String(name)
		if err != nil {
			return 0, err
		}
		return c.modeApply(f(ls, rs)), nil
	default: // MetricNumeric, MetricTime
		a, err := tableFloat(lt, li, c.LeftAttr)
		if err != nil {
			return 0, err
		}
		b, err := tableFloat(rt, ri, c.RightAttr)
		if err != nil {
			return 0, err
		}
		if anyNaN(a, b) {
			return math.NaN(), nil
		}
		return c.modeApply(math.Abs(a - b)), nil
	}
}

func tableFloat(t *Table, row int, attr string) (float64, error) {
	v, err := t.Value(row, attr)
	if err != nil {
		return 0, err
	}
	f, ok := v.AsFloat()
	if !ok {
		return math.NaN(), nil
	}
	return f, nil
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// Catalog holds the database: named tables and named connections. It is
// what the user selects from when starting the VisDB system
// (section 4.1).
type Catalog struct {
	tables      map[string]*Table
	connections map[string]Connection
	// epoch fingerprints the catalog contents for structural cache
	// keys: two catalogs with the same table names and row counts but
	// different data (a regenerated segment file, say) must not share
	// cached predicate vectors. File-backed catalogs carry the
	// content hash their writer stamped into the footer; in-memory
	// catalogs default to 0 (their identity is the process lifetime).
	epoch uint64
	// closer releases the backing resources of a file-backed catalog
	// (its file); nil for resident catalogs.
	closer func() error
	// src serves the segments of a file-backed catalog's columns; nil
	// for resident catalogs.
	src *fileSource
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:      make(map[string]*Table),
		connections: make(map[string]Connection),
	}
}

// Epoch returns the catalog's content fingerprint (0 for in-memory
// catalogs unless set).
func (c *Catalog) Epoch() uint64 { return c.epoch }

// SetEpoch overrides the catalog's content fingerprint.
func (c *Catalog) SetEpoch(e uint64) { c.epoch = e }

// Corrupt reports the sticky corruption error of a file-backed
// catalog: non-nil once any segment read failed its checksum, decode
// validation, or the underlying I/O (the error wraps
// ErrCorruptSegment). A failed segment reads as zeroes, so any result
// computed since the error was set is untrustworthy — callers must
// check after runs and quarantine the catalog on non-nil. Always nil
// for resident catalogs. Safe for concurrent use.
func (c *Catalog) Corrupt() error {
	if c.src == nil {
		return nil
	}
	return c.src.corruptErr()
}

// Close releases the backing resources of a file-backed catalog. It is
// a no-op for in-memory catalogs. The catalog must not be used after
// Close.
func (c *Catalog) Close() error {
	if c.closer == nil {
		return nil
	}
	f := c.closer
	c.closer = nil
	return f()
}

// AddTable registers a table; the name must be unused.
func (c *Catalog) AddTable(t *Table) error {
	if _, dup := c.tables[t.Name()]; dup {
		return fmt.Errorf("dataset: table %q already in catalog", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no table %q (have %v)", name, c.TableNames())
	}
	return t, nil
}

// TableNames lists registered table names, sorted.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddConnection registers a connection after validating it and checking
// that its tables and attributes exist.
func (c *Catalog) AddConnection(conn Connection) error {
	if err := conn.Validate(); err != nil {
		return err
	}
	if _, dup := c.connections[conn.Name]; dup {
		return fmt.Errorf("dataset: connection %q already in catalog", conn.Name)
	}
	lt, err := c.Table(conn.Left)
	if err != nil {
		return fmt.Errorf("dataset: connection %q: %w", conn.Name, err)
	}
	rt, err := c.Table(conn.Right)
	if err != nil {
		return fmt.Errorf("dataset: connection %q: %w", conn.Name, err)
	}
	for _, pair := range []struct {
		t    *Table
		attr string
	}{
		{lt, conn.LeftAttr}, {rt, conn.RightAttr},
	} {
		if pair.t.Schema().Index(pair.attr) < 0 {
			return fmt.Errorf("dataset: connection %q: table %s has no attribute %q", conn.Name, pair.t.Name(), pair.attr)
		}
	}
	if conn.Metric == MetricGeo {
		if lt.Schema().Index(conn.LeftAttr2) < 0 || rt.Schema().Index(conn.RightAttr2) < 0 {
			return fmt.Errorf("dataset: geo connection %q: missing longitude attribute", conn.Name)
		}
	}
	c.connections[conn.Name] = conn
	return nil
}

// Connection looks up a connection by name.
func (c *Catalog) Connection(name string) (Connection, error) {
	conn, ok := c.connections[name]
	if !ok {
		return Connection{}, fmt.Errorf("dataset: no connection %q (have %v)", name, c.ConnectionNames())
	}
	return conn, nil
}

// ConnectionNames lists registered connection names, sorted.
func (c *Catalog) ConnectionNames() []string {
	names := make([]string, 0, len(c.connections))
	for n := range c.connections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

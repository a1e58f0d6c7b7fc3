package repro

// The deletion rule as a test. The module is what its roots reach: every
// func main under cmd/ and examples/, every init function and `var _ =`
// initializer, the exported API of visdb and visdb/client (with the
// exported methods and fields of every module type they re-export, embed
// or mention), and every module object bench/ uses. A non-test
// declaration that no root reaches goes, together with the tests that kept
// it, unless it is an accessor or a reference implementation that a test
// of reachable behaviour calls: reachAllowlist names that test.
//
// The walk type-checks the module from source with the standard library
// only (go/parser, go/types, and go/importer's "source" importer for the
// standard library), bench/ included: bench/ is type-checked, not built,
// so its method calls resolve to the methods they call. The walk may keep
// dead code; it never reports live code.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist keeps declarations that only tests call, each for the
// tests of reachable behaviour that call it (the deletion rule's
// reference clause). A key is pkg.Name, pkg.Type.Method, or pkg.* for a
// whole package. Every entry must cover a declaration the walk finds
// unreachable, and one of its tests must reach each declaration it covers.
var reachAllowlist = map[string][]string{
	// The harness of the server chaos, router self-heal and catalog
	// corruption suites.
	"faultinject.*": {
		"TestChaosReplayMatchesInProcess", "TestDeadlineRollsBackAndRetryResumes", "TestSeqReplayAndConflict",
		"TestFleetChaosSoakSelfHeals", "TestTwoRoutersConvergeThroughRejoin", "TestReadmissionHysteresis", "TestNoHealthyMembers", "TestKVBreakerVisibleInFleetStats",
		"TestFleetReplayMatchesInProcess", "TestFleetNodeKillRecovers",
		"TestEveryByteFlipDetected", "TestCorruptionServedAsZeroes", "TestTruncationDetected", "TestCatalogTruncatedAfterOpen", "TestCatalogRewriteLeavesOpenReaderAlone", "TestWriteRefusesACorruptCatalog",
		"TestSessionCloseIsIdempotent",
	},
	// The element-at-a-time references of the range kernel.
	"distance.ToRange":       {"TestRangeKernelMatchesToRange"},
	"distance.ToRangeSigned": {"TestRangeKernelMatchesToRange"},
	"colormap.ToHSV":         {"TestOptimizedKeepsVisDBConstraints"},
	"stats.QuantileSorted":   {"TestQuantileIndexConsistency"},
	"stats.ErrEmpty":         {"TestQuantileIndexConsistency"},
	"stats.Pearson":          {"TestEnvironmentalTempSolarCorrelation"},
	"stats.LaggedPearson":    {"TestEnvironmentalPlantedCorrelations"},
	"stats.BestLag":          {"TestEnvironmentalPlantedCorrelations"},
	"stats.mean":             {"TestEnvironmentalPlantedCorrelations"},
	// Two routers agree on placement; a rejoining member drains first.
	"router.Router.PlacementHash": {"TestTwoRoutersConvergeThroughRejoin"},
	"router.Router.Draining":      {"TestDrainThenFlip"},
	"router.placement.draining":   {"TestDrainThenFlip"},
	// The kv client's singleflight and breaker counters.
	"kv.Client.Stats": {"TestClientSingleflight"},
	"kv.ClientStats":  {"TestClientSingleflight"},
}

// dynamicMethods are the method names the standard library calls on a
// value through an interface its signatures do not name.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "Unwrap": true, "Is": true, "As": true,
}

// apiPackages are the packages whose exported API is a root.
var apiPackages = []string{"repro/visdb", "repro/visdb/client"}

const benchPath = "repro/bench"

func TestDeclarationsReachable(t *testing.T) {
	m := repoModule(t)
	r := m.reach()
	var fail []string
	for _, d := range r.dead {
		if allowKey(d.key) == "" {
			fail = append(fail, d.String())
		}
	}
	for _, d := range r.writeOnly {
		fail = append(fail, d.String()+" (written, never read)")
	}
	if len(fail) > 0 {
		t.Errorf("no root reaches these %d declarations: delete each with the tests that keep it, "+
			"or add it to reachAllowlist with the test of reachable behaviour that calls it:\n%s",
			len(fail), strings.Join(fail, "\n"))
	}
	for _, bad := range m.checkAllowlist(r.dead) {
		t.Error(bad)
	}
}

// allowKey returns the allowlist key that covers a declaration, or "".
func allowKey(key string) string {
	if _, ok := reachAllowlist[key]; ok {
		return key
	}
	pkg, _, _ := strings.Cut(key, ".")
	if _, ok := reachAllowlist[pkg+".*"]; ok {
		return pkg + ".*"
	}
	return ""
}

// TestReachCatches runs the walk over the module plus an in-memory
// overlay of extra files: each injected case must be reported, and a new
// value of a live enum must not be.
func TestReachCatches(t *testing.T) {
	cases := []struct {
		name    string
		overlay map[string]string
		want    string // a key the walk must report
		notWant string // a key it must not
	}{
		{
			name: "unreferenced exported function",
			overlay: map[string]string{
				"internal/stats/probe.go": "package stats\n\nfunc Probe(xs []float64) float64 { return mean(xs) }\n",
			},
			want: "stats.Probe",
		},
		{
			name: "method only a test calls",
			overlay: map[string]string{
				"internal/stats/probe.go":      "package stats\n\nfunc (h *Histogram) Probe() int { return len(h.Counts) }\n",
				"internal/stats/probe_test.go": "package stats\n\nimport \"testing\"\n\nfunc TestProbe(t *testing.T) { _ = (&Histogram{}).Probe() }\n",
			},
			want: "stats.Histogram.Probe",
		},
		{
			name: "field written, never read",
			overlay: map[string]string{
				"internal/stats/probe.go": "package stats\n\ntype probe struct{ lo, hi float64 }\n\nvar probed probe\n\n" +
					"func init() { probed = probe{lo: 1, hi: 2}; _ = probed.hi }\n",
			},
			want:    "stats.probe.lo",
			notWant: "stats.probe.hi",
		},
		{
			name: "new enum value",
			overlay: map[string]string{
				"internal/relevance/probe.go": "package relevance\n\nconst probeMode CombineMode = 99\n",
			},
			notWant: "relevance.probeMode",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := loadModule(c.overlay)
			if err != nil {
				t.Fatal(err)
			}
			r := m.reach()
			got := map[string]bool{}
			for _, d := range append(r.dead, r.writeOnly...) {
				got[d.key] = true
			}
			if c.want != "" && !got[c.want] {
				t.Errorf("%s not reported", c.want)
			}
			if c.notWant != "" && got[c.notWant] {
				t.Errorf("%s reported", c.notWant)
			}
		})
	}
}

// settableFile is the committed census: a knob added or removed shows in
// its diff.
const settableFile = "testdata/settable.txt"

// TestSettableValues compares the census of what a caller or an operator
// can set with settableFile.
func TestSettableValues(t *testing.T) {
	got := repoModule(t).settable()
	want, err := os.ReadFile(settableFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the settable values differ from %s; if the change means it, commit this as the file:\n%s", settableFile, got)
	}
}

// Loading.

var (
	srcFset = token.NewFileSet()

	stdOnce sync.Once
	stdImp  types.ImporterFrom

	repoOnce sync.Once
	repo     *module
	repoErr  error
)

// stdImporter type-checks the standard library from source, once per test
// binary: every load shares it.
func stdImporter() types.ImporterFrom {
	stdOnce.Do(func() {
		stdImp = importer.ForCompiler(srcFset, "source", nil).(types.ImporterFrom)
	})
	return stdImp
}

// repoModule is the repository as it is on disk, loaded once per test
// binary.
func repoModule(t *testing.T) *module {
	repoOnce.Do(func() { repo, repoErr = loadModule(nil) })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repo
}

// A modPkg is one directory of the module, or bench/, parsed and
// type-checked.
type modPkg struct {
	path  string // import path
	dir   string // slash-separated, relative to the repository root
	files []*ast.File
	tests []string // the directory's _test.go files, not parsed
	pkg   *types.Package
	info  *types.Info
}

type module struct {
	pkgs      []*modPkg                  // with non-test files, sorted by path
	byPath    map[string]*modPkg         // every directory with Go files
	testLive  map[string]map[string]bool // by test function, see testReach
	testFiles map[string]*ast.File       // parsed on demand
}

// loadModule parses and type-checks every non-test Go file under the
// repository root (directories starting with "." or "_" and testdata
// excluded), with the overlay's files, keyed by slash-separated path,
// added or replacing the files on disk.
func loadModule(overlay map[string]string) (*module, error) {
	m := &module{byPath: map[string]*modPkg{}, testLive: map[string]map[string]bool{}, testFiles: map[string]*ast.File{}}
	srcs := map[string]string{}
	for file, src := range overlay {
		srcs[file] = src
	}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && file != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if file = filepath.ToSlash(file); !d.IsDir() && strings.HasSuffix(name, ".go") {
			if _, ok := srcs[file]; !ok {
				srcs[file] = ""
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for file, src := range srcs {
		dir := path.Dir(file)
		ip := "repro"
		if dir != "." {
			ip += "/" + dir
		}
		p := m.byPath[ip]
		if p == nil {
			p = &modPkg{path: ip, dir: dir}
			m.byPath[ip] = p
		}
		if strings.HasSuffix(file, "_test.go") {
			p.tests = append(p.tests, file)
			continue
		}
		if _, ok := overlay[file]; !ok {
			b, err := os.ReadFile(file)
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		f, err := parser.ParseFile(srcFset, file, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	for _, p := range m.byPath {
		if len(p.files) > 0 {
			m.pkgs = append(m.pkgs, p)
		}
		sort.Slice(p.files, func(i, j int) bool { return fileName(p.files[i]) < fileName(p.files[j]) })
		sort.Strings(p.tests)
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].path < m.pkgs[j].path })
	imp := m.importer(nil)
	for _, p := range m.pkgs {
		if _, err := imp.Import(p.path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func fileName(f *ast.File) string { return srcFset.File(f.Pos()).Name() }

// importerFunc is a types.ImporterFrom.
type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }

func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}

// importer resolves a module path to its package, type-checking it on
// first use, except where override names a package to use instead, and
// any other path to the standard library.
func (m *module) importer(override map[string]*types.Package) types.ImporterFrom {
	var imp importerFunc
	imp = func(path, dir string) (*types.Package, error) {
		if pkg, ok := override[path]; ok {
			return pkg, nil
		}
		p := m.byPath[path]
		if p == nil || len(p.files) == 0 {
			return stdImporter().ImportFrom(path, dir, 0)
		}
		if p.pkg == nil {
			if err := p.check(imp); err != nil {
				return nil, err
			}
		}
		return p.pkg, nil
	}
	return imp
}

func (p *modPkg) check(imp types.Importer) error {
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	var err error
	if p.pkg, err = conf.Check(p.path, srcFset, p.files, p.info); err != nil {
		return fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	return nil
}

// The walk.

// A decl is one package-level declaration: a function, a method, a type,
// or one name of a var or const spec.
type decl struct {
	obj  types.Object // nil for a `var _ =` initializer
	node ast.Node     // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	p    *modPkg
}

// decls lists the package's declarations in file order.
func (p *modPkg) decls() []*decl {
	var out []*decl
	for _, f := range p.files {
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				out = append(out, &decl{p.info.Defs[gd.Name], gd, p})
			case *ast.GenDecl:
				for _, s := range gd.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						out = append(out, &decl{p.info.Defs[s.Name], s, p})
					case *ast.ValueSpec:
						named := false
						for _, n := range s.Names {
							if n.Name != "_" {
								named = true
								out = append(out, &decl{p.info.Defs[n], s, p})
							}
						}
						if !named {
							out = append(out, &decl{nil, s, p})
						}
					}
				}
			}
		}
	}
	return out
}

// A finding is a declaration or a field the walk reports.
type finding struct {
	pos token.Position
	key string // pkg.Name, pkg.Type.Method or pkg.Type.field
}

func (f finding) String() string { return fmt.Sprintf("%s:%d %s", f.pos.Filename, f.pos.Line, f.key) }

type reachResult struct {
	dead      []finding // declarations no root reaches
	writeOnly []finding // fields live code writes and never reads
}

// A walker closes a live set over the declarations of some packages.
type walker struct {
	decls   map[types.Object]*decl
	all     []*decl
	live    map[types.Object]bool
	queue   []*decl
	visited []*decl

	called  map[*types.Func]bool // concrete methods live code refers to or a live interface requires
	methods map[*types.TypeName][]*types.Func
	consts  map[*types.TypeName][]*types.Const
	named   []*types.TypeName // live module types, in the order they went live

	ifaces    []*types.Interface // interfaces live code names or converts to
	seenType  map[types.Type]bool
	ifaceDone map[*types.TypeName]int // ifaces[:n] checked against the type

	api map[*types.TypeName]bool // module types in the API closure
}

func newWalker(pkgs []*modPkg) *walker {
	w := &walker{
		decls:     map[types.Object]*decl{},
		live:      map[types.Object]bool{},
		called:    map[*types.Func]bool{},
		methods:   map[*types.TypeName][]*types.Func{},
		consts:    map[*types.TypeName][]*types.Const{},
		seenType:  map[types.Type]bool{},
		ifaceDone: map[*types.TypeName]int{},
		api:       map[*types.TypeName]bool{},
	}
	for _, p := range pkgs {
		for _, d := range p.decls() {
			w.all = append(w.all, d)
			if d.obj == nil {
				continue
			}
			w.decls[d.obj] = d
			switch o := d.obj.(type) {
			case *types.Func:
				if tn := recvType(o); tn != nil {
					w.methods[tn] = append(w.methods[tn], o)
				}
			case *types.Const:
				if n, ok := o.Type().(*types.Named); ok {
					w.consts[n.Obj()] = append(w.consts[n.Obj()], o)
				}
			}
		}
	}
	return w
}

// reach walks the module from its roots and returns what the walk leaves
// out, sorted.
func (m *module) reach() reachResult {
	w := newWalker(m.pkgs)
	for _, d := range w.all {
		if d.p.path == benchPath || d.obj == nil || isEntry(d, "init") || isEntry(d, "main") && d.p.pkg.Name() == "main" {
			w.root(d)
		}
	}
	for _, ip := range apiPackages {
		scope := m.byPath[ip].pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				w.mark(obj)
				w.apiType(obj.Type())
			}
		}
	}
	w.run()
	var r reachResult
	for _, d := range w.all {
		if d.obj != nil && !w.live[d.obj] && d.p.path != benchPath {
			r.dead = append(r.dead, finding{srcFset.Position(d.obj.Pos()), key(d.obj)})
		}
	}
	r.writeOnly = w.writeOnlyFields()
	for _, l := range [][]finding{r.dead, r.writeOnly} {
		sort.Slice(l, func(i, j int) bool { return l[i].String() < l[j].String() })
	}
	return r
}

// isEntry reports whether d is a plain function of the given name.
func isEntry(d *decl, name string) bool {
	fd, ok := d.node.(*ast.FuncDecl)
	return ok && fd.Recv == nil && fd.Name.Name == name
}

// recvType is the named type declaring a concrete method, or nil for a
// function or an interface method.
func recvType(f *types.Func) *types.TypeName {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	n, ok := types.Unalias(deref(recv.Type())).(*types.Named)
	if !ok || types.IsInterface(n) {
		return nil
	}
	return n.Origin().Obj()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// key names a module object the way the walk reports it: by package
// name, or by directory for a command.
func key(obj types.Object) string {
	pkg := obj.Pkg().Name()
	if pkg == "main" {
		pkg = strings.TrimPrefix(obj.Pkg().Path(), "repro/")
	}
	if f, ok := obj.(*types.Func); ok {
		if tn := recvType(f); tn != nil {
			return pkg + "." + tn.Name() + "." + f.Name()
		}
	}
	return pkg + "." + obj.Name()
}

func (w *walker) root(d *decl) {
	if d.obj != nil {
		w.mark(d.obj)
		return
	}
	w.queue = append(w.queue, d)
}

// mark makes a declaration live and queues it; a type's constants go
// live with it.
func (w *walker) mark(obj types.Object) {
	d := w.decls[obj]
	if d == nil || w.live[obj] {
		return
	}
	w.live[obj] = true
	w.queue = append(w.queue, d)
	if tn, ok := obj.(*types.TypeName); ok {
		w.named = append(w.named, tn)
		for _, c := range w.consts[tn] {
			w.mark(c)
		}
	}
}

// use records a reference from live code. A method goes live when its
// receiver type is live too.
func (w *walker) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if tn := recvType(o); tn != nil {
			w.called[o] = true
			if w.live[tn] {
				w.mark(o)
			}
			return
		}
		obj = o
	case *types.Var:
		if o.IsField() {
			return
		}
		obj = o.Origin()
	}
	w.mark(obj)
}

// apiType adds the module types t mentions to the API closure: their
// exported methods are roots, and the types those methods and their
// exported or embedded fields mention join the closure.
func (w *walker) apiType(t types.Type) {
	switch t := t.(type) {
	case *types.Alias:
		w.apiType(types.Unalias(t))
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			w.apiType(t.TypeArgs().At(i))
		}
		o := t.Origin()
		tn := o.Obj()
		if w.api[tn] || w.decls[tn] == nil {
			return
		}
		w.api[tn] = true
		w.mark(tn)
		for i := 0; i < o.NumMethods(); i++ {
			if f := o.Method(i); f.Exported() {
				w.mark(f)
				w.apiType(f.Type())
			}
		}
		w.apiType(o.Underlying())
	case *types.Pointer:
		w.apiType(t.Elem())
	case *types.Slice:
		w.apiType(t.Elem())
	case *types.Array:
		w.apiType(t.Elem())
	case *types.Chan:
		w.apiType(t.Elem())
	case *types.Map:
		w.apiType(t.Key())
		w.apiType(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				w.apiType(tup.At(i).Type())
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				w.apiType(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			w.apiType(t.Method(i).Type())
		}
	}
}

// run closes the live set: what live declarations refer to, and the
// methods of live types that live code calls, that a live interface the
// type implements requires, or that the standard library calls by name.
func (w *walker) run() {
	for len(w.queue) > 0 {
		for len(w.queue) > 0 {
			d := w.queue[0]
			w.queue = w.queue[1:]
			w.visit(d)
		}
		for i := 0; i < len(w.named); i++ {
			tn := w.named[i]
			w.satisfy(tn)
			for _, f := range w.methods[tn] {
				if w.called[f] || dynamicMethods[f.Name()] || w.api[tn] && f.Exported() {
					w.mark(f)
				}
			}
		}
	}
}

// satisfy marks called the methods of tn that the live interfaces it
// implements require (by name alone for a generic type).
func (w *walker) satisfy(tn *types.TypeName) {
	n, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(n) {
		return
	}
	generic := n.TypeParams().Len() > 0
	for _, it := range w.ifaces[w.ifaceDone[tn]:] {
		if !generic && !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if f, ok := lookupMethod(n, m); ok {
				w.use(f)
			}
		}
	}
	w.ifaceDone[tn] = len(w.ifaces)
}

func lookupMethod(n *types.Named, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name())
	f, ok := obj.(*types.Func)
	return f, ok
}

// visit follows a live declaration's references and records the
// interfaces its values are or may be converted to: every expression's
// type, every call's parameters, every composite literal's fields and
// elements.
func (w *walker) visit(d *decl) {
	w.visited = append(w.visited, d)
	info := d.p.info
	ast.Inspect(d.node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				w.use(obj)
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				w.use(sel.Obj())
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; !tv.IsType() && tv.Type != nil {
				w.ifaceOf(tv.Type.Underlying())
			}
		case *ast.CompositeLit:
			if tv := info.Types[n]; tv.Type != nil {
				if s, ok := tv.Type.Underlying().(*types.Struct); ok {
					for i := 0; i < s.NumFields(); i++ {
						w.ifaceOf(s.Field(i).Type())
					}
				} else {
					w.ifaceOf(tv.Type.Underlying())
				}
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if tv := info.Types[e]; tv.Type != nil {
				w.ifaceOf(tv.Type)
			}
		}
		return true
	})
}

// ifaceOf records the interfaces t is or is built of (elements, keys,
// parameters and results); it does not descend into a named type.
func (w *walker) ifaceOf(t types.Type) {
	if w.seenType[t] {
		return
	}
	w.seenType[t] = true
	if it, ok := t.Underlying().(*types.Interface); ok {
		if it.NumMethods() > 0 {
			w.ifaces = append(w.ifaces, it)
		}
		return
	}
	switch t := t.(type) {
	case *types.Pointer:
		w.ifaceOf(t.Elem())
	case *types.Slice:
		w.ifaceOf(t.Elem())
	case *types.Array:
		w.ifaceOf(t.Elem())
	case *types.Chan:
		w.ifaceOf(t.Elem())
	case *types.Map:
		w.ifaceOf(t.Key())
		w.ifaceOf(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				w.ifaceOf(tup.At(i).Type())
			}
		}
	}
}

// Fields.

// fieldWrites calls write for every field node writes to — a composite
// literal's element, an assignment's or ++/--'s target, a field whose
// address is taken — and returns the assignment and ++/-- targets.
func fieldWrites(info *types.Info, node ast.Node, write func(*types.Var)) map[ast.Expr]bool {
	targets := map[ast.Expr]bool{}
	field := func(e ast.Expr) *ast.SelectorExpr {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				write(s.Obj().(*types.Var).Origin())
				return sel
			}
		}
		return nil
	}
	target := func(e ast.Expr) {
		if sel := field(e); sel != nil {
			targets[sel] = true
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				target(l)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X) // read through the pointer too: not a target
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
					write(f.Origin())
				}
			}
		case *ast.CompositeLit:
			if s, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for i, e := range n.Elts {
					if _, keyed := e.(*ast.KeyValueExpr); !keyed {
						write(s.Field(i).Origin())
					}
				}
			}
		}
		return true
	})
	return targets
}

// writeOnlyFields reports the fields of module structs that live code
// writes and never reads. It skips the exported fields of a struct in the
// API closure, and every field of a struct that reflection or == may
// read: one with a tag, converted to an interface, used as a map key or
// compared, or held by such a struct.
func (w *walker) writeOnlyFields() []finding {
	owner := map[*types.Var]*types.TypeName{}
	for obj, d := range w.decls {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && d.p.path != benchPath {
			if s, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < s.NumFields(); i++ {
					owner[s.Field(i)] = tn
				}
			}
		}
	}
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	opaque := map[types.Type]bool{} // struct types reflection or == may read
	for _, d := range w.visited {
		info := d.p.info
		targets := fieldWrites(info, d.node, func(f *types.Var) { written[f] = true })
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil {
					for _, f := range embeddedPath(s) {
						read[f] = true
					}
					if s.Kind() == types.FieldVal && !targets[n] {
						read[s.Obj().(*types.Var).Origin()] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					opaque[info.Types[n.X].Type] = true
					opaque[info.Types[n.Y].Type] = true
				}
			case *ast.MapType:
				opaque[info.Types[n.Key].Type] = true
			case *ast.Ident: // a type argument may be a map key or compared
				if inst, ok := info.Instances[n]; ok {
					for i := 0; i < inst.TypeArgs.Len(); i++ {
						opaque[inst.TypeArgs.At(i)] = true
					}
				}
			case *ast.CallExpr:
				tv := info.Types[n.Fun]
				switch {
				case tv.IsBuiltin():
				case tv.IsType():
					if types.IsInterface(tv.Type) && len(n.Args) == 1 {
						opaque[deref(info.Types[n.Args[0]].Type)] = true
					}
				default:
					sig, ok := tv.Type.Underlying().(*types.Signature)
					for i, a := range n.Args {
						if pt := paramType(sig, i, n.Ellipsis.IsValid()); ok && pt != nil && types.IsInterface(pt) {
							opaque[deref(info.Types[a].Type)] = true // fmt prints what a pointer points to
						}
					}
				}
			}
			return true
		})
	}
	skip := map[*types.TypeName]bool{}
	var hide func(t types.Type)
	hide = func(t types.Type) {
		n, ok := t.(*types.Named)
		if !ok || skip[n.Origin().Obj()] {
			return
		}
		skip[n.Origin().Obj()] = true
		if s, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				hide(types.Unalias(s.Field(i).Type()))
			}
		}
	}
	for t := range opaque {
		if t != nil {
			hide(types.Unalias(t))
		}
	}
	for f, tn := range owner {
		if s := tn.Type().Underlying().(*types.Struct); f == s.Field(0) && hasTag(s) {
			hide(tn.Type())
		}
	}
	var out []finding
	for f := range written {
		tn := owner[f]
		if tn == nil || read[f] || skip[tn] || w.api[tn] && f.Exported() {
			continue
		}
		out = append(out, finding{srcFset.Position(f.Pos()), key(tn) + "." + f.Name()})
	}
	return out
}

func hasTag(s *types.Struct) bool {
	for i := 0; i < s.NumFields(); i++ {
		if s.Tag(i) != "" {
			return true
		}
	}
	return false
}

// embeddedPath lists the embedded fields a selection passes through.
func embeddedPath(s *types.Selection) []*types.Var {
	var out []*types.Var
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		st, ok := deref(t.Underlying()).Underlying().(*types.Struct)
		if !ok {
			return out
		}
		f := st.Field(i)
		out = append(out, f.Origin())
		t = f.Type()
	}
	return out
}

// paramType is the type of the parameter a call's i-th argument is
// passed to; spread is true for a call f(xs...).
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	if sig == nil {
		return nil
	}
	ps := sig.Params()
	if sig.Variadic() && !spread && i >= ps.Len()-1 {
		return ps.At(ps.Len() - 1).Type().(*types.Slice).Elem()
	}
	if i < ps.Len() {
		return ps.At(i).Type()
	}
	return nil
}

// The census.

// settable is the census: every field of an exported *Options, *Config or
// *Policy struct with its type and its count of non-test write sites
// (bench/ included), then every flag a command defines with its type and
// default.
func (m *module) settable() string {
	writes := map[*types.Var]int{}
	var knobs []*types.TypeName
	var flags []string
	for _, p := range m.pkgs {
		for _, f := range p.files {
			fieldWrites(p.info, f, func(v *types.Var) { writes[v]++ })
		}
		if p.path == benchPath {
			continue
		}
		if p.pkg.Name() == "main" {
			flags = append(flags, p.flags()...)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isKnobStruct(tn) {
				continue
			}
			knobs = append(knobs, tn)
		}
	}
	sort.Slice(knobs, func(i, j int) bool { return key(knobs[i]) < key(knobs[j]) })
	sort.Strings(flags)
	var b strings.Builder
	b.WriteString("# Settable values, written by TestSettableValues (reach_test.go).\n" +
		"# pkg.Type.Field type writes: a field of an exported *Options, *Config or *Policy struct\n" +
		"# and its non-test write sites; cmd -flag type default: a flag a command defines.\n")
	for _, tn := range knobs {
		s := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			fmt.Fprintf(&b, "%s.%s %s %d\n", key(tn), f.Name(), types.TypeString(f.Type(), pkgName), writes[f])
		}
	}
	for _, f := range flags {
		b.WriteString(f + "\n")
	}
	return b.String()
}

func isKnobStruct(tn *types.TypeName) bool {
	_, ok := tn.Type().Underlying().(*types.Struct)
	name := tn.Name()
	return ok && (strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy"))
}

func pkgName(p *types.Package) string { return p.Name() }

// flags lists the flags a main package defines through package flag, as
// "dir -name type default".
func (p *modPkg) flags() []string {
	var out []string
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			for i, a := range call.Args {
				tv := p.info.Types[a]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					continue
				}
				line := fmt.Sprintf("%s -%s", p.dir, constant.StringVal(tv.Value))
				switch name := fn.Name(); {
				case name == "Func" || name == "BoolFunc" || name == "Var":
					out = append(out, line+" "+strings.ToLower(name))
				case i+2 < len(call.Args): // name, default, usage
					def := call.Args[i+1]
					out = append(out, fmt.Sprintf("%s %s %s", line, types.TypeString(p.info.Types[def].Type, pkgName), types.ExprString(def)))
				}
				break
			}
			return true
		})
	}
	return out
}

// The allowlist.

// checkAllowlist verifies that every allowlist entry covers an
// unreachable declaration and that one of the entry's tests reaches each
// declaration it covers.
func (m *module) checkAllowlist(dead []finding) []string {
	covered := map[string][]string{}
	for _, d := range dead {
		if k := allowKey(d.key); k != "" {
			covered[k] = append(covered[k], d.key)
		}
	}
	var bad []string
	for k, tests := range reachAllowlist {
		if len(covered[k]) == 0 {
			bad = append(bad, fmt.Sprintf("allowlist entry %s covers no unreachable declaration: delete it", k))
			continue
		}
		reached := map[string]bool{}
		for _, test := range tests {
			live, err := m.testReach(test)
			if err != nil {
				bad = append(bad, fmt.Sprintf("allowlist entry %s: %v", k, err))
			}
			for d := range live {
				reached[d] = true
			}
		}
		for _, d := range covered[k] {
			if !reached[d] {
				bad = append(bad, fmt.Sprintf("allowlist entry %s: none of %v reaches %s", k, tests, d))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// testReach returns the keys of the module declarations a test function
// reaches: the walk rooted at the test and its package's initializers.
func (m *module) testReach(name string) (map[string]bool, error) {
	if live, ok := m.testLive[name]; ok {
		return live, nil
	}
	p, err := m.testPackage(name)
	if err != nil {
		return nil, err
	}
	w := newWalker(append(slices.Clone(m.pkgs), p))
	for _, d := range p.decls() {
		if d.obj == nil || isEntry(d, "init") || isEntry(d, name) {
			w.root(d)
		}
	}
	w.run()
	live := map[string]bool{}
	for obj := range w.live {
		live[key(obj)] = true
	}
	m.testLive[name] = live
	return live, nil
}

// testPackage finds the test function of the given name and returns its
// package type-checked: the directory's package with its in-package test
// files, or the external test package over the directory's package.
func (m *module) testPackage(name string) (*modPkg, error) {
	for _, p := range m.byPath {
		var in, ext []*ast.File
		var home *[]*ast.File
		for _, file := range p.tests {
			f, err := m.parseTest(file)
			if err != nil {
				return nil, err
			}
			files := &in
			if strings.HasSuffix(f.Name.Name, "_test") {
				files = &ext
			}
			*files = append(*files, f)
			if slices.ContainsFunc(f.Decls, func(d ast.Decl) bool {
				fd, ok := d.(*ast.FuncDecl)
				return ok && fd.Recv == nil && fd.Name.Name == name
			}) {
				home = files
			}
		}
		switch home {
		case nil:
			continue
		case &in:
			t := &modPkg{path: p.path, dir: p.dir, files: append(slices.Clone(p.files), in...)}
			return t, t.check(m.importer(nil))
		default:
			t := &modPkg{path: p.path + "_test", dir: p.dir, files: ext}
			return t, t.check(m.importer(nil))
		}
	}
	return nil, fmt.Errorf("no test function %s", name)
}

func (m *module) parseTest(file string) (*ast.File, error) {
	if f, ok := m.testFiles[file]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(srcFset, file, nil, parser.SkipObjectResolution)
	m.testFiles[file] = f
	return f, err
}

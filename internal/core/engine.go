package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relevance"
)

// Engine executes visual feedback queries against a catalog. An Engine
// is immutable after construction and safe for concurrent Run calls;
// the catalog must not be mutated while queries run.
type Engine struct {
	cat *dataset.Catalog
	reg *distance.Registry
	opt Options
	// workers is how many goroutines chunk one leaf's distance pass:
	// every core GOMAXPROCS gives the process. A run builds its leaves
	// one after another, so this is its one parallel layer.
	workers int
}

// New creates an engine. reg may be nil (built-in distances only).
func New(cat *dataset.Catalog, reg *distance.Registry, opt Options) *Engine {
	if reg == nil {
		reg = distance.NewRegistry()
	}
	return &Engine{cat: cat, reg: reg, opt: opt.withDefaults(), workers: runtime.GOMAXPROCS(0)}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *dataset.Catalog { return e.cat }

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opt }

// RunSQL parses and runs a query in the VisDB dialect.
func (e *Engine) RunSQL(src string) (*Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Run(q)
}

// StageTimings records wall-clock durations of the pipeline stages of
// one Run, supporting the section 3 complexity discussion ("query
// processing time is dominated by the time needed for sorting") with a
// measured breakdown. Distances covers the per-predicate distance
// computation (tree building), Evaluate the normalization and weighted
// combination of the query tree below the root, Sort the final
// full-sort relevance ranking (FullSort runs, and roots the evaluator
// declines to defer), Select the
// selection-based partial ranking (the default rank-before-scale path,
// which ranks RAW root values and materializes only the display
// budget), Scale the final monotonic transforms applied to the top-k
// survivors (including the clamp-tie cut), and Reduce the display
// reduction plus placement. Exactly one of Sort and Select is nonzero
// per run; Scale is nonzero only on the Select path. RootCombine is not
// a further stage but a part of Select ("of which"): the time spent
// producing the raw root values the selection reads — every row bounded
// from the children's code planes, and the rows the bounds leave open
// scaled and combined — so Select − RootCombine is the selection proper.
type StageTimings struct {
	Bind        time.Duration
	Distances   time.Duration
	Evaluate    time.Duration
	Sort        time.Duration
	Select      time.Duration
	RootCombine time.Duration
	Scale       time.Duration
	Reduce      time.Duration
	Total       time.Duration
	// CacheHits and CacheMisses attribute the Distances stage of a
	// cached run: how many leaf vectors were served from the cache
	// versus recomputed. SharedHits is the subset of CacheHits the
	// SharedCache served rather than the run cache's pins: a leaf
	// another session computed (or is computing — a wait on its
	// in-flight fill), or one this session computed earlier and is
	// returning to. All are zero for uncached runs.
	CacheHits, CacheMisses, SharedHits int
	// Refined, Pruned and Chunks attribute the filter of the
	// rank-before-scale path: the rows whose exact root value was
	// computed (the rest the children's code planes ruled out), and the
	// evaluator chunks with none of them, out of the total chunk count.
	// Cold runs filter like warm ones — every leaf is coded where it is
	// computed — and both names are frozen by wire.Timings and bench/.
	Refined, Pruned, Chunks int
	// SketchHits and SketchRescans attribute the interior reuse of the
	// Evaluate stage: interior nodes whose combine pass was skipped
	// because their raw combined vector was cached (an interior
	// descendant is resolved on its own, a hit or its own pass), and how
	// many of them needed a pass over the vector for their normalization
	// range — the gather of the rows of its code plane's crossing
	// bucket, or NormRange when that bucket is dense, as the counts
	// answer the minimum's class and the maximum on their own. Zero for
	// uncached runs. Both names predate the code plane; wire.Timings and
	// bench/ freeze them.
	SketchHits, SketchRescans int
	// SegsSkipped and Segs attribute the segment-stats pushdown of a
	// leaf's column read: storage segments whose read was skipped
	// because the column's per-segment stats proved every row in range
	// (distance exactly 0), out of the segments the run's fresh range
	// leaves considered, resident or file-backed. Zero on warm runs
	// (nothing is recomputed) and for uncached runs.
	SegsSkipped, Segs int
}

// Run executes q: bind, compute per-predicate distances, combine, rank,
// reduce and arrange. The returned Result holds the relevance ranking,
// the per-window normalized distances, the stats-panel numbers and the
// per-stage timings.
func (e *Engine) Run(q *query.Query) (*Result, error) {
	return e.RunCtx(context.Background(), q, nil, nil)
}

// RunCtx executes q like Run, bounded by ctx, over binding b, reusing
// cache. Each of the three may be absent.
//
// ctx: the run polls it between pipeline stages, between distance
// chunks and between evaluator chunks, and aborts with an error
// wrapping ctx.Err() once it is done. An aborted run leaves the cache
// consistent — completed leaf vectors stay cached (they are correct),
// the run's pooled buffers return to the pool, and no partial result
// escapes.
//
// b: a nil b binds q against the engine's catalog. A non-nil b must
// come from query.Bind of this exact query AST against this catalog —
// the interaction loop binds once and reruns many times (the engine
// never mutates a binding, so one binding may serve any number of
// runs, concurrent ones included); reparse or requery means rebind.
//
// cache: leaf distance vectors whose structural signature is unchanged
// are served from it instead of recomputed, and the evaluation stage
// writes into buffers pooled in it instead of allocating. A weight-only
// rerun recomputes nothing below the combination stage; a
// single-slider range drag recomputes exactly one leaf. Cached runs are
// bit-identical to cold ones. Leaf lookups go the cache's pins → its
// SharedCache → recompute; when that is a catalog-level SharedCache
// (AttachShared), recomputed leaves fill it once for every session on
// the catalog. The pooling has a sharp edge: each cached run recycles
// the evaluation buffers of the previous run on the same cache, so a
// Result is only valid until the next run with that cache, and a cache
// must not serve concurrent runs. Sessions (one user, one interaction
// loop) hold one; a nil cache runs uncached, for concurrent or
// long-lived results.
func (e *Engine) RunCtx(ctx context.Context, q *query.Query, b *query.Binding, cache *RunCache) (*Result, error) {
	start := time.Now()
	if b == nil {
		var err error
		if b, err = query.Bind(q, e.cat); err != nil {
			return nil, err
		}
	} else if b.Query != q {
		return nil, fmt.Errorf("core: binding does not belong to this query")
	} else if b.Catalog != e.cat {
		return nil, fmt.Errorf("core: binding was resolved against a different catalog")
	}
	return e.runBound(ctx, q, b, cache, start)
}

// runBound is RunCtx after name resolution.
func (e *Engine) runBound(ctx context.Context, q *query.Query, b *query.Binding, cache *RunCache, start time.Time) (*Result, error) {
	// A context that can never be canceled (Background) needs no
	// polling; everything else turns into a per-chunk checkpoint.
	var checkpoint func() error
	if ctx != nil && ctx.Done() != nil {
		checkpoint = func() error {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: run canceled: %w", err)
			}
			return nil
		}
	}
	space, err := e.buildItemSpace(q)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Engine:  e,
		Query:   q,
		Binding: b,
		Space:   space,
		N:       space.n,
		nodeOf:  make(map[query.Expr]*relevance.Node),
	}
	res.checkpoint = checkpoint
	runOK := false
	if cache != nil {
		cache.beginRun()
		// A failed run must not recycle the buffers of the previous
		// (still live) Result; endRun(false) returns only this run's
		// buffers to the pool.
		defer func() { cache.endRun(runOK) }()
		res.cache = cache
		res.keys = e.runKeys(space)
	}
	res.Timings.Bind = time.Since(start)
	mark := time.Now()
	root, err := e.buildTree(q.Where, b, space, res)
	if err != nil {
		return nil, err
	}
	res.root = root
	res.Timings.Distances = time.Since(mark)
	if cache != nil {
		res.Timings.CacheHits, res.Timings.CacheMisses, res.Timings.SharedHits = cache.runStats()
		res.Timings.SegsSkipped, res.Timings.Segs = cache.runSegStats()
	}
	mark = time.Now()
	budget := e.opt.GridW * e.opt.GridH
	evalOpts := relevance.EvalOptions{
		Budget:         budget,
		Mode:           e.opt.Mode,
		NaiveNormalize: e.opt.NaiveNormalize,
		And:            e.opt.And,
		LpP:            e.opt.LpP,
		// Rank-before-scale: on the selection path the root's final
		// monotonic transforms apply only to the top-k survivors, so
		// the root is evaluated raw and deferred.
		DeferRoot: !e.opt.FullSort,
		// Per-chunk cancellation: a request deadline interrupts the
		// evaluation (and the deferred ranking) mid-sweep.
		Checkpoint: checkpoint,
	}
	if cache != nil {
		evalOpts.Alloc = cache.floats.alloc
		// Interior reuse: an interior node whose key (runKeys.interior)
		// names a vector the pins or the tier hold is ranged like a leaf;
		// one they do not hold is filled by the node's pass.
		evalOpts.Interior = func(key string, compute func() ([]float64, *relevance.Codes, error)) ([]float64, *relevance.Codes, error) {
			le, err := cache.fetch(key, space.n, nil, func() (leafEntry, error) {
				raw, codes, err := compute()
				return leafEntry{raw: raw, codes: codes}, err
			})
			return le.raw, le.codes, err
		}
	}
	eval, err := relevance.Evaluate(root, space.n, evalOpts)
	if err != nil {
		return nil, err
	}
	res.Timings.Evaluate = time.Since(mark)
	res.Timings.SketchHits, res.Timings.SketchRescans = eval.SketchHits, eval.SketchRescans
	res.Eval = eval
	numPreds := len(query.Predicates(q.Where))
	mark = time.Now()
	// colorable is the count of non-NaN combined distances (uncolorable
	// items never display).
	var colorable int
	switch {
	case e.opt.FullSort || !eval.Deferred():
		// Exact O(n log n) ranking of every item — the paper's
		// "dominating" sort, kept as the oracle the selection path is
		// compared against, and for the pathological weights whose root
		// the evaluator declines to defer.
		colorable = space.n - relevance.CountNaN(eval.Combined)
		res.rankSorted, res.rankOrder = reduce.SortWithIndex(eval.Combined)
		res.Timings.Sort = time.Since(mark)
	default:
		// Rank-before-scale selection: rank the RAW root values of the
		// rows the children's codes cannot rule out, and scale only the
		// survivors. Combined materializes lazily (Result.Combined).
		k := e.selectBudget(space.n)
		var vals []float64
		var idx []int
		if cache != nil {
			vals, idx = cache.floats.alloc(k), cache.ints.alloc(k)
		}
		rk, err := eval.RankRoot(k, vals, idx)
		if err != nil {
			return nil, err
		}
		res.rankSorted, res.rankOrder = rk.Sorted, rk.Order
		colorable = space.n - rk.NaNs
		res.Timings.Select = time.Since(mark) - rk.ScaleTime
		res.Timings.RootCombine = rk.CombineTime
		res.Timings.Scale = rk.ScaleTime
		res.Timings.Refined, res.Timings.Pruned, res.Timings.Chunks = rk.Refined, rk.Pruned, rk.Chunks
	}
	mark = time.Now()
	// The picture starts as the ranking's head; the 2D placement may
	// narrow it to its band.
	res.sorted, res.Order = res.rankSorted, res.rankOrder
	res.Displayed = e.displayCount(res.rankSorted, colorable, space.n, numPreds)
	res.buildPlacement()
	res.Timings.Reduce = time.Since(mark)
	res.Timings.Total = time.Since(start)
	runOK = true
	return res, nil
}

// selectBudget is how many leading ranks the selection path
// materializes: the window capacity plus the ~25% margin the gap
// heuristic of section 5.1 inspects past the quantile cut (and a small
// constant for quantile rounding), clamped to n. Any display cut the
// full sort could produce is derivable from this prefix.
func (e *Engine) selectBudget(n int) int {
	capacity := e.opt.GridW * e.opt.GridH
	k := capacity + capacity/4 + 32
	if k > n {
		k = n
	}
	return k
}

// displayCount picks how many ranked items are displayed. rankedPrefix
// holds the leading ranks in ascending distance order (the whole
// ranking under FullSort), colorable the number of non-NaN combined
// distances, and total the totality of items n.
func (e *Engine) displayCount(rankedPrefix []float64, colorable, total, numPreds int) int {
	capacity := e.opt.GridW * e.opt.GridH
	if colorable < 0 {
		colorable = 0
	}
	if e.opt.PercentDisplayed > 0 {
		k := int(math.Round(e.opt.PercentDisplayed * float64(total)))
		if k > capacity {
			k = capacity
		}
		if k > colorable {
			k = colorable
		}
		// With an all-NaN predicate (colorable == 0) nothing displays;
		// the clamp also keeps k non-negative for any inputs.
		if k < 0 {
			k = 0
		}
		return k
	}
	r := capacity * (numPreds + 1)
	prefix := rankedPrefix
	if colorable < len(prefix) {
		// The ranked prefix is NaN-last, so its first colorable
		// entries are exactly the finite distances.
		prefix = prefix[:colorable]
	}
	k := reduce.CutPrefix(prefix, colorable, r, numPreds)
	if k > capacity {
		k = capacity
	}
	if k < 0 {
		k = 0
	}
	return k
}

// buildItemSpace materializes the totality of items: rows of a single
// table, or the (capped) cross product of two tables (section 4.4).
func (e *Engine) buildItemSpace(q *query.Query) (*itemSpace, error) {
	switch len(q.From) {
	case 1:
		t, err := e.cat.Table(q.From[0])
		if err != nil {
			return nil, err
		}
		return &itemSpace{tables: []*dataset.Table{t}, n: t.NumRows()}, nil
	case 2:
		lt, err := e.cat.Table(q.From[0])
		if err != nil {
			return nil, err
		}
		rt, err := e.cat.Table(q.From[1])
		if err != nil {
			return nil, err
		}
		pairs := join.Pairs(lt.NumRows(), rt.NumRows(), e.opt.MaxPairs)
		return &itemSpace{tables: []*dataset.Table{lt, rt}, pairs: pairs, n: len(pairs)}, nil
	default:
		return nil, fmt.Errorf("core: %d-table queries unsupported (1 or 2 tables)", len(q.From))
	}
}

// buildTree converts the bound condition tree into a relevance node
// tree, computing raw leaf distances. A nil condition yields an
// all-zeros leaf (every item is a correct answer).
func (e *Engine) buildTree(where query.Expr, b *query.Binding, space *itemSpace, res *Result) (*relevance.Node, error) {
	if where == nil {
		return &relevance.Node{Op: relevance.Leaf, Label: "true", Dists: make([]float64, space.n)}, nil
	}
	return e.exprNode(where, b, space, res, false)
}

// exprNode builds the node for one expression. negated handles the
// negation semantics of section 4.4: invertible comparison operators
// invert; everything else falls back to exact boolean evaluation with
// satisfied items at distance 0 and failing items uncolorable.
func (e *Engine) exprNode(expr query.Expr, b *query.Binding, space *itemSpace, res *Result, negated bool) (*relevance.Node, error) {
	// Per-node cancellation poll: a request deadline cuts the Distances
	// stage off between leaf computations (the evaluator's per-chunk
	// checkpoints cover everything after). Leaves that completed before
	// the deadline stay cached — they are correct — so the retry after
	// a timeout resumes instead of starting over.
	if err := res.poll(); err != nil {
		return nil, err
	}
	switch n := expr.(type) {
	case *query.Cond:
		attr, bound := b.Attrs[n]
		if !bound {
			return nil, fmt.Errorf("core: condition %q not bound", n.Label())
		}
		c := n
		if negated {
			if inv, ok := n.Op.Invert(); ok {
				// The inverted condition is a private rewrite: the shared
				// binding is never touched, so a binding stays read-only
				// for its whole life and reruns (and concurrent runs) can
				// reuse it.
				c = &query.Cond{Attr: n.Attr, Op: inv, Value: n.Value, Lo: n.Lo, Hi: n.Hi,
					List: n.List, DistFunc: n.DistFunc, W: n.W}
			} else {
				return e.booleanLeaf(n, b, space, res, true)
			}
		}
		res.setEvaluated(n, c)
		compute := func() (leafEntry, error) {
			le, skipped, segs, err := e.condData(c, attr, space, nil, nil)
			if err == nil && res.cache != nil && segs > 0 {
				// Segment-pushdown attribution happens here, inside the
				// compute closure, so only the run that actually paid for
				// the cold scan counts it (cache hits recompute nothing).
				res.cache.addSegStats(skipped, segs)
			}
			return le, err
		}
		// The cache key (runKeys.cond) is the condition's structural
		// signature: bound table.attr plus Label (operator, literals,
		// distance function — Label excludes the weighting factor by
		// construction), so weight-only reruns hit unconditionally.
		return e.leafNode(res, space, expr, expr.Label(), res.keys.cond(attr.Qualified(), c.Label()), compute)
	case *query.BoolExpr:
		op := relevance.NodeAnd
		if n.Op == query.Or {
			op = relevance.NodeOr
		}
		if negated {
			// De Morgan: NOT(AND) = OR(NOT...), NOT(OR) = AND(NOT...).
			if op == relevance.NodeAnd {
				op = relevance.NodeOr
			} else {
				op = relevance.NodeAnd
			}
		}
		node := &relevance.Node{Op: op, Label: n.Label(), Weight: n.Weight()}
		// Children build in query order, each leaf's pass chunked across
		// every core (Engine.workers).
		for _, c := range n.Children {
			child, err := e.exprNode(c, b, space, res, negated)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		}
		return e.interiorNode(res, expr, node), nil
	case *query.Not:
		child, err := e.exprNode(n.Child, b, space, res, !negated)
		if err != nil {
			return nil, err
		}
		node := &relevance.Node{Op: relevance.NodeAnd, Label: n.Label(), Weight: n.Weight(),
			Children: []*relevance.Node{child}}
		return e.interiorNode(res, expr, node), nil
	case *query.JoinExpr:
		conn, ok := b.Joins[n]
		if !ok {
			return nil, fmt.Errorf("core: join %q not bound", n.Connection)
		}
		compute := func() ([]float64, error) {
			var dists []float64
			var err error
			if space.pairs == nil {
				// Single-table use of a connection: the join-partner-count
				// distance of section 4.4 — "if the user is only interested
				// in one relation and in the number of join partners that
				// each data item of this relation has with another relation,
				// the user might use the inverse of that number as the
				// distance". A partner is a row of the other relation that
				// fulfills the connection exactly (distance 0; use a
				// Within-mode connection for tolerance-based counting).
				dists, err = e.partnerCountDistances(conn, space)
			} else {
				out := make([]float64, len(space.pairs))
				err = parallelFor(len(space.pairs), e.workers, itemChunk, func(from, to int) error {
					return join.ConnDistancesRange(conn, space.tables[0], space.tables[1], space.pairs, out, from, to, e.reg)
				})
				dists = out
			}
			if err != nil {
				return nil, err
			}
			if negated {
				// Negated joins are uncolorable where the join holds
				// exactly. The rewrite happens before the vector is cached
				// (the key carries the negation flag), so cached vectors
				// are never re-mutated.
				for i, d := range dists {
					if d == 0 {
						dists[i] = math.NaN()
					} else {
						dists[i] = 0
					}
				}
			}
			return dists, nil
		}
		return e.leafNode(res, space, n, n.Label(), res.keys.join(n.Label(), negated), e.distsOnly(compute))
	case *query.SubqueryExpr:
		return e.subqueryNode(n, b, space, res, negated)
	default:
		return nil, fmt.Errorf("core: unsupported expression %T", expr)
	}
}

// interiorNode records the AND/OR node of expr, keyed for the cache
// when the run is cached.
func (e *Engine) interiorNode(res *Result, expr query.Expr, node *relevance.Node) *relevance.Node {
	if res.cache != nil {
		node.Key = res.keys.interior(node)
	}
	res.setNode(expr, node)
	return node
}

// partnerCountDistances computes the inverse-partner-count distance of
// a connection for every row of a single-table query. The FROM table
// may be either side of the connection; the other side is looked up in
// the catalog.
func (e *Engine) partnerCountDistances(conn dataset.Connection, space *itemSpace) ([]float64, error) {
	table := space.tables[0]
	var other *dataset.Table
	var err error
	switch table.Name() {
	case conn.Left:
		other, err = e.cat.Table(conn.Right)
	case conn.Right:
		// Reverse the connection so the FROM table sits on the left.
		conn = reverseConnection(conn)
		other, err = e.cat.Table(conn.Right)
	default:
		return nil, fmt.Errorf("core: connection %q does not touch table %s", conn.Name, table.Name())
	}
	if err != nil {
		return nil, err
	}
	// Each left row scans the partner relation independently; chunk the
	// O(n·m) count across the worker pool.
	counts := make([]int, table.NumRows())
	if err := parallelFor(len(counts), e.workers, 16, func(from, to int) error {
		return join.PartnerCountsRange(conn, table, other, 0, counts, from, to, e.reg)
	}); err != nil {
		return nil, err
	}
	return join.PartnerDistances(counts), nil
}

// reverseConnection swaps the sides of a connection.
func reverseConnection(c dataset.Connection) dataset.Connection {
	c.Left, c.Right = c.Right, c.Left
	c.LeftAttr, c.RightAttr = c.RightAttr, c.LeftAttr
	c.LeftAttr2, c.RightAttr2 = c.RightAttr2, c.LeftAttr2
	return c
}

// booleanLeaf builds a leaf from exact boolean evaluation: satisfied
// items get distance 0, failing items are uncolorable (NaN), matching
// "no distance values may be obtained and hence no coloring is
// possible" for negations (section 4.4).
func (e *Engine) booleanLeaf(c *query.Cond, b *query.Binding, space *itemSpace, res *Result, negate bool) (*relevance.Node, error) {
	label := c.Label()
	if negate {
		label = "NOT " + label
	}
	compute := func() ([]float64, error) {
		attr := b.Attrs[c]
		t, err := space.tableByName(attr.Table)
		if err != nil {
			return nil, err
		}
		dists := make([]float64, space.n)
		if err := parallelFor(space.n, e.workers, itemChunk, func(from, to int) error {
			for i := from; i < to; i++ {
				row, err := space.rowFor(i, attr.Table)
				if err != nil {
					return err
				}
				v, err := t.Value(row, attr.Attr)
				if err != nil {
					return err
				}
				sat, err := c.Holds(attr.Kind, v)
				if err != nil {
					return err
				}
				if negate {
					sat = !sat
				}
				if sat {
					dists[i] = 0
				} else {
					dists[i] = math.NaN()
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		return dists, nil
	}
	return e.leafNode(res, space, c, label, res.keys.boolean(label), e.distsOnly(compute))
}

// leafNode builds the relevance leaf of a condition, join,
// boolean-fallback or subquery expression from its leafEntry: fetched
// under key on a cached run, computed on the spot otherwise. The leaf
// carries its key and its code plane.
func (e *Engine) leafNode(res *Result, space *itemSpace, expr query.Expr, label, key string, compute func() (leafEntry, error)) (*relevance.Node, error) {
	le, err := res.cache.fetch(key, space.n, e.entry, compute)
	if err != nil {
		return nil, err
	}
	node := &relevance.Node{Op: relevance.Leaf, Label: label, Weight: expr.Weight(), Dists: le.raw,
		Codes: le.codes, Key: key}
	res.setNode(expr, node)
	return node, nil
}

// distsOnly adapts the compute of a join, boolean-fallback or subquery
// leaf, whose entry is its distance vector and its code plane.
func (e *Engine) distsOnly(compute func() ([]float64, error)) func() (leafEntry, error) {
	return func() (leafEntry, error) {
		dists, err := compute()
		if err != nil {
			return leafEntry{}, err
		}
		return e.entry(dists), nil
	}
}

// entry is the entry of a leaf's distance vector: the vector and its
// code plane.
func (e *Engine) entry(dists []float64) leafEntry {
	return leafEntry{raw: dists, codes: e.codes(dists)}
}

// codes builds the code plane of v over its finite extremes, both
// passes split across the engine's workers.
func (e *Engine) codes(v []float64) *relevance.Codes {
	var mu sync.Mutex
	lo, hi := math.Inf(1), math.Inf(-1)
	_ = parallelFor(len(v), e.workers, itemChunk, func(from, to int) error {
		l, h := relevance.FiniteExtremes(v[from:to])
		mu.Lock()
		lo, hi = min(lo, l), max(hi, h)
		mu.Unlock()
		return nil
	})
	return e.codesOver(v, lo, hi)
}

// codesOver builds the code plane of v, whose finite values lie in
// [lo, hi], its evaluator chunks split across the engine's workers: the
// same bytes for any number of them.
func (e *Engine) codesOver(v []float64, lo, hi float64) *relevance.Codes {
	cp := relevance.NewCodes(len(v), lo, hi)
	_ = parallelFor(cp.Chunks(), e.workers, 1, func(c0, c1 int) error {
		cp.Encode(v, c0, c1)
		return nil
	})
	return cp
}

// subqueryNode implements the nested-query semantics of section 4.4:
// EXISTS and IN score each outer item by the minimum distance over the
// inner relation ("the data item most closely fulfilling the subquery
// condition"); the negated forms are colorable only via boolean
// evaluation (yellow where satisfied, uncolorable otherwise).
func (e *Engine) subqueryNode(sq *query.SubqueryExpr, b *query.Binding, space *itemSpace, res *Result, negated bool) (*relevance.Node, error) {
	subBinding, ok := b.Subs[sq]
	if !ok {
		return nil, fmt.Errorf("core: subquery not bound")
	}
	compute := func() ([]float64, error) {
		if len(sq.Sub.From) != 1 {
			return nil, fmt.Errorf("core: subqueries over %d tables unsupported", len(sq.Sub.From))
		}
		inner, err := e.cat.Table(sq.Sub.From[0])
		if err != nil {
			return nil, err
		}
		// Combined inner-condition distance per inner row, using a nested
		// evaluation (normalization-free raw means keep the scale of the
		// attribute distance; we use normalized values for robustness).
		innerSpace := &itemSpace{tables: []*dataset.Table{inner}, n: inner.NumRows()}
		// The inner run polls the outer run's checkpoint, so a request
		// deadline interrupts it like any other leaf compute.
		innerRes := &Result{Engine: e, nodeOf: make(map[query.Expr]*relevance.Node), checkpoint: res.checkpoint}
		innerRoot, err := e.buildTree(sq.Sub.Where, subBinding, innerSpace, innerRes)
		if err != nil {
			return nil, err
		}
		innerEval, err := relevance.Evaluate(innerRoot, innerSpace.n, relevance.EvalOptions{
			Budget:     e.opt.GridW * e.opt.GridH,
			Mode:       e.opt.Mode,
			Checkpoint: res.checkpoint,
		})
		if err != nil {
			return nil, err
		}
		innerDist := innerEval.Combined

		mode := sq.Mode
		if negated {
			switch mode {
			case query.Exists:
				mode = query.NotExists
			case query.NotExists:
				mode = query.Exists
			case query.InQuery:
				mode = query.NotInQuery
			case query.NotInQuery:
				mode = query.InQuery
			}
		}
		dists := make([]float64, space.n)
		switch mode {
		case query.Exists:
			// Uncorrelated EXISTS: the same minimum for every outer item.
			best := math.NaN()
			for _, d := range innerDist {
				if math.IsNaN(d) {
					continue
				}
				if math.IsNaN(best) || d < best {
					best = d
				}
			}
			for i := range dists {
				dists[i] = best
			}
		case query.InQuery:
			attr := b.InAttrs[sq]
			innerAttr := subBinding.Selects[0]
			conn := dataset.Connection{
				Name: "in-subquery", Left: attr.Table, Right: innerAttr.Table,
				LeftAttr: attr.Attr, RightAttr: innerAttr.Attr,
				Metric: dataset.MetricNumeric, Mode: dataset.ModeEqual,
			}
			if attr.Kind.IsStringy() {
				conn.Metric = dataset.MetricString
			} else if attr.Kind == dataset.KindTime {
				conn.Metric = dataset.MetricTime
			}
			outer, err := space.tableByName(attr.Table)
			if err != nil {
				return nil, err
			}
			perRow, err := join.MinDistancePerLeft(conn, outer, inner, innerDist, e.reg)
			if err != nil {
				return nil, err
			}
			for i := range dists {
				row, err := space.rowFor(i, attr.Table)
				if err != nil {
					return nil, err
				}
				dists[i] = perRow[row]
			}
		case query.NotExists, query.NotInQuery:
			sat, err := e.boolSubquery(sq, mode, b, subBinding, space, inner, innerDist)
			if err != nil {
				return nil, err
			}
			for i := range dists {
				if sat[i] {
					dists[i] = 0
				} else {
					dists[i] = math.NaN()
				}
			}
		}
		return dists, nil
	}
	// The subquery leaf caches on runKeys.subquery — the full rendered
	// subquery plus the engine options the inner evaluation depends on.
	key := res.keys.subquery(e.opt.GridW*e.opt.GridH, e.opt.Mode, sq.String(), negated)
	return e.leafNode(res, space, sq, sq.Label(), key, e.distsOnly(compute))
}

// boolSubquery evaluates NOT EXISTS / NOT IN exactly. The inner
// condition counts as satisfied where its combined distance is zero.
func (e *Engine) boolSubquery(sq *query.SubqueryExpr, mode query.SubqueryMode, b, subBinding *query.Binding, space *itemSpace, inner *dataset.Table, innerDist []float64) ([]bool, error) {
	anyInner := false
	for _, d := range innerDist {
		if d == 0 {
			anyInner = true
			break
		}
	}
	sat := make([]bool, space.n)
	switch mode {
	case query.NotExists:
		for i := range sat {
			sat[i] = !anyInner
		}
	case query.NotInQuery:
		attr := b.InAttrs[sq]
		innerAttr := subBinding.Selects[0]
		outer, err := space.tableByName(attr.Table)
		if err != nil {
			return nil, err
		}
		innerCol, err := inner.Column(innerAttr.Attr)
		if err != nil {
			return nil, err
		}
		members := make(map[string]bool)
		for r := 0; r < inner.NumRows(); r++ {
			if innerDist[r] == 0 && !innerCol.IsNull(r) {
				members[innerCol.Value(r).String()] = true
			}
		}
		outerCol, err := outer.Column(attr.Attr)
		if err != nil {
			return nil, err
		}
		for i := range sat {
			row, err := space.rowFor(i, attr.Table)
			if err != nil {
				return nil, err
			}
			if outerCol.IsNull(row) {
				sat[i] = false
				continue
			}
			sat[i] = !members[outerCol.Value(row).String()]
		}
	}
	return sat, nil
}

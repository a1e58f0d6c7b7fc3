package relevance

// This file implements the reuse of interior nodes' raw combined
// vectors behind EvalOptions.InteriorFetch/InteriorStore.
//
// An interior node's RAW combined vector depends only on its subtree —
// the children's raw vectors, their weights (which fix both the
// combination coefficients and each child's keep count), the combiner
// kind, and the evaluation options feeding the kernels. It does NOT
// depend on the node's own weight: that enters only through the keep
// count of the node's own normalization range. An interactive weight
// drag therefore leaves every subtree that does not contain the dragged
// leaf bit-identical, and so does a range drag on a leaf outside it.
//
// A cached subtree is a leaf. On a miss the evaluator hands
// InteriorStore a private copy of the node's raw combined vector with
// its code plane. On a hit the fused passes of the whole subtree are
// skipped and the node is treated exactly as the Leaf case of eval
// treats a leaf: the vector is read-only, its normalization range comes
// from its code plane's counts when the caller has one and from
// NormRange when not, its scaled form is chunk-local in the parent's
// pass, and Result.Vec materializes it on demand.

// cachedVec is what InteriorFetch answered for one node.
type cachedVec struct {
	raw   []float64
	codes *Codes
}

// fetchInterior asks the caller's store for node's raw combined vector
// under its key. Only a vector of this evaluation's shape is a hit.
func (c *fusedCtx) fetchInterior(node *Node) (cachedVec, bool) {
	if node.Key == "" || c.opts.InteriorFetch == nil {
		return cachedVec{}, false
	}
	raw, codes := c.opts.InteriorFetch(node.Key)
	if raw == nil || len(raw) != c.n || (codes != nil && len(codes.codes) != c.n) {
		return cachedVec{}, false
	}
	return cachedVec{raw: raw, codes: codes}, true
}

// collectSubtreeEntries fetches the cached vectors of every interior
// DESCENDANT of node (node's own is the caller's). The hit is only
// taken when all of them are present: Result.Vec may be asked for any
// descendant's window (drill-down), so every skipped node must remain
// materializable from its own vector. A partial cache (an eviction
// split the subtree) degrades to a miss, never to a missing window.
func (c *fusedCtx) collectSubtreeEntries(node *Node) (map[*Node]cachedVec, bool) {
	entries := map[*Node]cachedVec{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		for _, ch := range n.Children {
			if ch.Op == Leaf {
				continue
			}
			e, ok := c.fetchInterior(ch)
			if !ok {
				return false
			}
			entries[ch] = e
			if !walk(ch) {
				return false
			}
		}
		return true
	}
	return entries, walk(node)
}

// useInteriorEntry is the fused evaluator's cache-hit path for an
// interior node: the combine passes of the whole subtree are skipped and
// node, with every interior descendant, becomes a lazy read-only vector
// ranged like a leaf. Descendant leaves still contribute their display
// params (their vectors were never inputs to the cached combines, only
// their params were) and materialize through Result.Vec like the rest.
func (c *fusedCtx) useInteriorEntry(node *Node, e cachedVec, entries map[*Node]cachedVec) ([]float64, NormParams, error) {
	var regLeaves func(n *Node) error
	regLeaves = func(n *Node) error {
		for _, child := range n.Children {
			if child.Op != Leaf {
				if err := regLeaves(child); err != nil {
					return err
				}
				continue
			}
			v, p, err := c.eval(child)
			if err != nil {
				return err
			}
			c.res.setLazy(child, v, p)
		}
		return nil
	}
	if err := regLeaves(node); err != nil {
		return nil, NormParams{}, err
	}
	use := func(d *Node, de cachedVec) NormParams {
		p, scanned := de.codes.Range(de.raw, c.keepOf(d))
		c.res.setLazy(d, de.raw, p)
		c.res.SketchHits++
		c.res.SketchRescans += b2i(scanned)
		return p
	}
	for d, de := range entries {
		use(d, de)
	}
	node.Codes = e.codes
	return e.raw, use(node, e), nil
}

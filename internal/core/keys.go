package core

import (
	"fmt"
	"strings"

	"repro/internal/relevance"
)

// runKeys is the single point where structural cache keys are built:
// every leaf's and every interior node's (relevance.Node.Key; the
// evaluator only reads them). A RunCache's pins, the SharedCache and the
// remote tier all key by these strings, and a key names exactly one
// vector: everything its computation depends on is in it. Every key
// embeds the item-space fingerprint — table identities, row counts and
// the catalog's segment epoch (spaceSig) — a leaf's directly, an
// interior node's through its leaves, so caches shared across catalog
// reloads or regenerated segment files can never serve vectors computed
// over different data. No leaf key depends on the arrangement: a spiral
// and a 2D session share their condition leaves, and the 2D placement
// adds its axes' signed distances under keys of their own (axis).
type runKeys struct {
	// space is the item-space fingerprint of the run (spaceSig).
	space string
	// kernel fixes the evaluation options an interior node's raw
	// combined vector depends on (Engine.runKeys); spaceSig fixes n.
	kernel string
}

// runKeys returns the keys of a run over space.
func (e *Engine) runKeys(space *itemSpace) runKeys {
	o := e.opt
	return runKeys{space: e.spaceSig(space),
		kernel: fmt.Sprintf("m%d|a%d|p%x|b%d|nn%v", o.Mode, o.And, o.LpP, o.GridW*o.GridH, o.NaiveNormalize)}
}

// cond keys a simple-condition leaf: bound table.attr plus the
// condition label (operator, literals, distance function — Label
// excludes the weighting factor by construction, so weight-only reruns
// hit unconditionally). A leaf that is a view of its column's plane
// (viewOf) is keyed under viewTag: its entry is its view, which a
// process takes of the plane it coded itself, so it never travels.
func (k runKeys) cond(qualified, label string, view bool) string {
	tag := "C|"
	if view {
		tag = viewTag
	}
	return tag + k.space + "|" + qualified + "|" + label
}

// join keys a join-connection leaf; negation is part of the identity
// (the negated vector differs, while the label does not).
func (k runKeys) join(label string, negated bool) string {
	return fmt.Sprintf("J|%s|%s|neg=%v", k.space, label, negated)
}

// boolean keys an exact-boolean fallback leaf (the label already
// carries the NOT prefix when negated).
func (k runKeys) boolean(label string) string {
	return "B|" + k.space + "|" + label
}

// subquery keys a subquery leaf on the full rendered subquery (String
// keeps inner weighting factors, which DO change the inner combined
// distances and hence this leaf's vector) plus the engine options the
// inner evaluation depends on (budget and combine mode), so a cache
// shared across differently-configured engines never serves a stale
// vector.
func (k runKeys) subquery(budget int, mode relevance.CombineMode, rendered string, negated bool) string {
	return fmt.Sprintf("S|%s|%d|%d|%s|neg=%v", k.space, budget, mode, rendered, negated)
}

// axis keys the signed distances of a 2D axis condition whose leaf is
// keyed leaf: the leaf's key pins every input, the arrangement is the
// entry's own.
func (k runKeys) axis(leaf string) string { return "A|" + leaf }

// interior keys an AND/OR node's raw combined vector from the run's
// kernel options, the operator, and each child's key and weight (a
// child's weight fixes its keep count and its combination coefficient).
// The children's keys pin, down to the leaves, the item space, the
// segment epoch, every literal, negation and distance function, so a
// De-Morganed subtree never aliases its un-negated twin although their
// labels are equal. The node's own weight is left out: it enters only
// the node's own normalization range, not its raw vector, so a drag of
// it — or of a sibling — reuses the entry. Children are keyed before
// their parent.
func (k runKeys) interior(n *relevance.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s|%d", interiorTag, k.kernel, n.Op)
	for _, ch := range n.Children {
		fmt.Fprintf(&b, "|%d:%s|w%x", len(ch.Key), ch.Key, ch.EffWeight())
	}
	return b.String()
}

// pairs keys the PairIndex of two code planes (a two-child root's
// children's) by the planes' IDs, which name exactly the code bytes it
// groups: a range leaf's view carries its column plane's, so the index
// of two range leaves outlives a range drag of either; a vector another
// process computed is coded anew when it arrives, so its key may come
// back with another plane, and the IDs keep an index from outliving the
// codes it groups.
func (k runKeys) pairs(a, b *relevance.Codes) string {
	return fmt.Sprintf("%s%d|%d", pairsTag, a.ID(), b.ID())
}

// column keys the code plane of a numeric column of the item space's
// one table (Engine.columnPlane), which the space's fingerprint and the
// qualified attribute name exactly.
func (k runKeys) column(qualified string) string { return columnTag + k.space + "|" + qualified }

// interiorTag starts every interior key, pairsTag every PairIndex key,
// columnTag every column plane's key and viewTag every view leaf's, and
// no other.
const (
	interiorTag = "I|"
	pairsTag    = "G|"
	columnTag   = "V|"
	viewTag     = "R|"
)

// isInterior reports whether key names an interior node's raw combined
// vector.
func isInterior(key string) bool { return strings.HasPrefix(key, interiorTag) }

// isLocal reports whether key names what never travels to the remote
// tier: an interior vector, which a run rebuilds from its leaves in one
// pass, a PairIndex, whose planes are the process's own, a column plane,
// which a process codes once from the catalog it holds, or a view leaf,
// which is the view of such a plane.
func isLocal(key string) bool {
	return isInterior(key) || isView(key) || strings.HasPrefix(key, pairsTag) || strings.HasPrefix(key, columnTag)
}

// isView reports whether key names a view leaf (runKeys.cond).
func isView(key string) bool { return strings.HasPrefix(key, viewTag) }

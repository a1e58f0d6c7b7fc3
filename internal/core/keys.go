package core

import (
	"fmt"
	"strings"

	"repro/internal/relevance"
)

// runKeys is the single point where structural cache keys are built.
// A RunCache's pins, the SharedCache and the remote tier all key by
// these strings, and a key names exactly one vector: everything the
// leaf computation depends on is in it. Every key embeds the item-space
// fingerprint — table identities, row counts and the catalog's segment
// epoch (spaceSig) — so caches shared across catalog reloads or
// regenerated segment files can never serve vectors computed over
// different data.
type runKeys struct {
	// space is the item-space fingerprint of the run (spaceSig).
	space string
	// signed marks the run of an Arrange2D engine, whose condition
	// leaves carry signed distances beside the unsigned ones.
	signed bool
}

// cond keys a simple-condition leaf: bound table.attr plus the
// condition label (operator, literals, distance function — Label
// excludes the weighting factor by construction, so weight-only reruns
// hit unconditionally). A 2D-arrangement run's leaf holds a second,
// signed vector, so it is another entry under a marked key — the way a
// subquery key carries budget and mode. No fingerprint starts with the
// marker, so the two forms cannot collide.
func (k runKeys) cond(qualified, label string) string {
	prefix := "C|"
	if k.signed {
		prefix = signedCondPrefix
	}
	return prefix + k.space + "|" + qualified + "|" + label
}

// signedCondPrefix starts the condition keys of signed runs.
const signedCondPrefix = "C|signed|"

// isSignedCond reports whether key names a condition leaf with its
// signed vector.
func isSignedCond(key string) bool { return strings.HasPrefix(key, signedCondPrefix) }

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

// interior keys an interior node's cached raw combined vector. sig is
// the evaluator's structural signature (fusedCtx.sig) whose leaves are
// identified by their full leaf cache keys (EvalOptions.LeafID), so the
// key transitively pins the item space, the segment epoch, every leaf's
// literals and distance function, the subtree shape, the child weights
// and the kernel options.
func (k runKeys) interior(sig string) string {
	return "I|" + sig
}

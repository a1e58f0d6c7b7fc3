package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/datagen"
	"repro/internal/query"
)

// The interaction script: what each client does, step by step. It is a
// pure function of (seed, client index), generated before anything is
// stood up, so the system under test only ever sees the ops.

type opKind uint8

const (
	opRange opKind = iota
	opWeight
	opUndo
	opCreate // cold_disk only: open a fresh session from SQL text
)

var opKindNames = [...]string{"range", "weight", "undo", "create"}

func (k opKind) String() string { return opKindNames[k] }

// op is one mutation; the step it belongs to also reads the whole
// displayed prefix back.
type op struct {
	Kind   opKind
	Attr   string  // opRange
	Lo, Hi float64 // opRange
	Pred   int     // opWeight: top-level predicate index
	Weight float64 // opWeight
	SQL    string  // opCreate
}

func (o op) String() string {
	switch o.Kind {
	case opRange:
		return fmt.Sprintf("range %s [%g,%g]", o.Attr, o.Lo, o.Hi)
	case opWeight:
		return fmt.Sprintf("weight pred %d = %g", o.Pred, o.Weight)
	case opCreate:
		return "create " + o.SQL
	}
	return "undo"
}

var weightChoices = []float64{0.5, 1, 2, 3}

// numBookmarks is how many revisited ranges each attribute has. The
// bookmarks are shared by all clients, so revisits are where one
// client's leaf work can be reused by another.
const numBookmarks = 16

// maxWidth bounds a dragged range: the traffic columns are uniform on
// [0,100), so a range's width is its selectivity in percent.
const maxWidth = 40

// clientRand derives client c's generator from the run seed.
func clientRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
}

// deck deals 0..n-1 in a seeded order and reshuffles when it runs out,
// so every value comes up equally often whatever the seed. What a step
// costs depends on what it asks for — a wide range saturates the
// display and prunes well, a narrow one does not — and with independent
// draws the average asked-for width, and with it every latency, moved
// by several percent from seed to seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) deal() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// placeRange puts an integer range of the given width somewhere inside
// [0,100].
func placeRange(rng *rand.Rand, width int) [2]float64 {
	lo := rng.Intn(100 - width + 1)
	return [2]float64{float64(lo), float64(lo + width)}
}

// bookmarks returns the seeded revisit ranges per attribute: the same
// 16 widths, evenly spread over 3..40, for every attribute and seed;
// only where they lie is drawn.
func bookmarks(seed int64) map[string][][2]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x626f6f6b))
	out := make(map[string][][2]float64)
	for _, attr := range []string{"a", "b", "c"} {
		for i := 0; i < numBookmarks; i++ {
			out[attr] = append(out[attr], placeRange(rng, 3+i*(maxWidth-3)/(numBookmarks-1)))
		}
	}
	return out
}

// dragQuery is the session query client c drags on.
func dragQuery(c int) string {
	qs := datagen.TrafficQueries()
	return qs[c%len(qs)]
}

// dragCycle is the shape of every client's script: an analyst drags one
// slider a few times, adjusts weights, drags another slider, undoes
// that, and so on. Over the 20 steps 10 are range drags (every other
// one revisits a bookmark), 6 are weight changes and 4 are undos.
//
// The order is fixed and only the values are seeded, on purpose. What a
// step costs depends on the step before it — the first step to reuse a
// freshly computed leaf builds that leaf's quantile and chunk index, a
// repeated drag of the same slider does not — so latencies per kind are
// bimodal, and with a shuffled order the share of slow steps wanders
// around the very percentiles reported (a weight change followed a
// range drag half of the time: its median sat on the gap between the
// two modes). With this cycle one weight change in three, one range
// drag in five and one step in five overall meet an unindexed leaf, on
// every seed and in every timed block.
var dragCycle = []struct {
	kind opKind
	n    int
}{
	{opRange, 3}, {opWeight, 3}, {opRange, 2}, {opUndo, 2},
}

// dragScript generates n steps for client c by repeating dragCycle.
// Successive drag gestures move round the query's sliders; a drag or a
// weight change never restates the current value (the session would
// skip it without recalculating), and by construction an undo always
// has something to undo.
func dragScript(seed int64, c, n int) ([]op, error) {
	q, err := query.Parse(dragQuery(c))
	if err != nil {
		return nil, err
	}
	var attrs []string
	query.Walk(q.Where, func(e query.Expr) {
		if cond, ok := e.(*query.Cond); ok {
			attrs = append(attrs, cond.Attr)
		}
	})
	preds := query.Predicates(q.Where)
	// The generator's model of the session: the current range per slider
	// ({-1,-1} = the query's original condition), the current weight per
	// predicate, and the undo history of both.
	type state struct {
		ranges  [][2]float64
		weights []float64
	}
	clone := func(s state) state {
		return state{slices.Clone(s.ranges), slices.Clone(s.weights)}
	}
	st := state{make([][2]float64, len(attrs)), make([]float64, len(preds))}
	for i := range st.ranges {
		st.ranges[i] = [2]float64{-1, -1}
	}
	for i, p := range preds {
		st.weights[i] = p.Weight()
	}
	var history []state

	marks := bookmarks(seed)
	rng := clientRand(seed, c)
	revisit, width := newDeck(rng, numBookmarks), newDeck(rng, maxWidth)
	change := newDeck(rng, len(preds)*len(weightChoices)) // which weight, to what
	ops := make([]op, 0, n)
	drags, gestures := 0, 0
	for len(ops) < n {
		for _, g := range dragCycle {
			ai := gestures % len(attrs)
			if g.kind == opRange {
				gestures++
			}
			for i := 0; i < g.n && len(ops) < n; i++ {
				if g.kind == opUndo {
					st, history = history[len(history)-1], history[:len(history)-1]
					ops = append(ops, op{Kind: opUndo})
					continue
				}
				history = append(history, clone(st))
				if g.kind == opWeight {
					pi, w := 0, st.weights[0]
					for w == st.weights[pi] {
						card := change.deal()
						pi, w = card%len(preds), weightChoices[card/len(preds)]
					}
					st.weights[pi] = w
					ops = append(ops, op{Kind: opWeight, Pred: pi, Weight: w})
					continue
				}
				r := st.ranges[ai]
				for r == st.ranges[ai] {
					if drags%2 == 0 {
						r = marks[attrs[ai]][revisit.deal()]
					} else {
						r = placeRange(rng, 1+width.deal())
					}
				}
				drags++
				st.ranges[ai] = r
				ops = append(ops, op{Kind: opRange, Attr: attrs[ai], Lo: r[0], Hi: r[1]})
			}
		}
	}
	return ops, nil
}

// coldTemplates are the cold_disk session queries: every one carries a
// range on the clustered column t (the shape segment-stats pushdown
// can skip) next to a condition on a uniform column (which it cannot).
var coldTemplates = []string{
	"SELECT a FROM S WHERE a > %d AND t BETWEEN %d AND %d",
	"SELECT a FROM S WHERE b < %d AND t BETWEEN %d AND %d",
	"SELECT a FROM S WHERE c > %d AND t BETWEEN %d AND %d",
}

// coldStepsPerVisit is create + range drag + weight change.
const coldStepsPerVisit = 3

// coldScript generates n steps (rounded up to whole visits) for client
// c: each visit opens a session on a query with fresh literals, drags
// the t range once and changes one weight once. Templates rotate by
// visit and the literals come off decks, so the mix of shapes and
// selectivities does not depend on the seed.
func coldScript(seed int64, c, n int) []op {
	rng := clientRand(seed, c)
	threshold := newDeck(rng, 10) // 5, 15, … 95
	width := newDeck(rng, 25)     // 5 … 29 on the clustered column
	change := newDeck(rng, 2*3)   // which weight, to what
	tRange := func() [2]float64 { return placeRange(rng, 5+width.deal()) }
	ops := make([]op, 0, n+coldStepsPerVisit)
	for v := 0; len(ops) < n; v++ {
		first := tRange()
		sql := fmt.Sprintf(coldTemplates[(v+c)%len(coldTemplates)], 5+10*threshold.deal(), int(first[0]), int(first[1]))
		drag := first
		for drag == first {
			drag = tRange()
		}
		card := change.deal()
		ops = append(ops,
			op{Kind: opCreate, SQL: sql},
			op{Kind: opRange, Attr: "t", Lo: drag[0], Hi: drag[1]},
			// Both predicates start at weight 1, so any other choice is a
			// real change.
			op{Kind: opWeight, Pred: card % 2, Weight: []float64{0.5, 2, 3}[card/2]},
		)
	}
	return ops
}

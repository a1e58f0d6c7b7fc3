package lru

import (
	"math/rand"
	"slices"
	"testing"
)

// ref is the naive reference the store is checked against: a slice in
// recency order (index 0 = most recently used) and the eviction rule
// written out longhand.
type ref struct {
	maxEntries int
	maxBytes   int64
	order      []refEntry
}

type refEntry struct {
	key  uint8
	val  int
	cost int64
}

func (r *ref) find(k uint8) int {
	return slices.IndexFunc(r.order, func(e refEntry) bool { return e.key == k })
}

func (r *ref) bytes() (sum int64) {
	for _, e := range r.order {
		sum += e.cost
	}
	return sum
}

func (r *ref) touch(i int) {
	e := r.order[i]
	r.order = slices.Insert(slices.Delete(r.order, i, i+1), 0, e)
}

func (r *ref) evict() (evicted int) {
	for len(r.order) > 1 && (r.maxEntries > 0 && len(r.order) > r.maxEntries || r.maxBytes > 0 && r.bytes() > r.maxBytes) {
		r.order = r.order[:len(r.order)-1]
		evicted++
	}
	return evicted
}

// checker drives a Cache and the reference through the same operations
// and compares them after every one.
type checker struct {
	t     *testing.T
	c     *Cache[uint8, int]
	r     ref
	nextV int
	// inserted − removed (evicted) must equal Len.
	inserted, removed int
}

func newChecker(t *testing.T, maxEntries int, maxBytes int64) *checker {
	return &checker{t: t, c: New[uint8, int](maxEntries, maxBytes), r: ref{maxEntries: maxEntries, maxBytes: maxBytes}}
}

const numOps = 2

// step applies operation op (mod numOps) on key k with cost, to both.
func (ck *checker) step(op, k uint8, cost int64) {
	t, c, r := ck.t, ck.c, &ck.r
	t.Helper()
	i := r.find(k)
	lenBefore := c.Len()
	switch op % numOps {
	case 0: // Get
		v, ok := c.Get(k)
		if ok != (i >= 0) || ok && v != r.order[i].val {
			t.Fatalf("Get(%d) = %d, %v; reference index %d", k, v, ok, i)
		}
		if i >= 0 {
			r.touch(i)
		}
	case 1: // Put
		ck.nextV++
		got := c.Put(k, ck.nextV, cost)
		added := 0
		if i >= 0 {
			r.order[i].val, r.order[i].cost = ck.nextV, cost
			r.touch(i)
		} else {
			r.order = slices.Insert(r.order, 0, refEntry{key: k, val: ck.nextV, cost: cost})
			added = 1
		}
		ck.inserted += added
		want := r.evict()
		ck.removed += got
		if got != want {
			t.Fatalf("Put(%d, cost %d) evicted %d, reference %d", k, cost, got, want)
		}
		if n, ok := c.items[k]; !ok || n.val != ck.nextV {
			t.Fatalf("Put(%d) evicted the entry it stored", k)
		}
		if lenBefore+added-got != c.Len() {
			t.Fatalf("Put(%d): %d + %d - %d evicted != %d resident", k, lenBefore, added, got, c.Len())
		}
	}
	ck.invariants()
}

func (ck *checker) invariants() {
	t, c, r := ck.t, ck.c, &ck.r
	t.Helper()
	var got []refEntry
	for n := c.root.next; n != &c.root; n = n.next {
		if n.next.prev != n || c.items[n.key] != n {
			t.Fatalf("list or index broken at key %d", n.key)
		}
		got = append(got, refEntry{n.key, n.val, n.cost})
	}
	if !slices.Equal(got, r.order) {
		t.Fatalf("resident (MRU first) %v, reference %v", got, r.order)
	}
	if c.Len() != len(got) || len(c.items) != len(got) {
		t.Fatalf("Len %d, index %d, list %d", c.Len(), len(c.items), len(got))
	}
	if c.Bytes() != r.bytes() {
		t.Fatalf("Bytes %d, sum of costs %d", c.Bytes(), r.bytes())
	}
	if r.maxEntries > 0 && c.Len() > r.maxEntries {
		t.Fatalf("Len %d over the cap %d", c.Len(), r.maxEntries)
	}
	if r.maxBytes > 0 && c.Bytes() > r.maxBytes && c.Len() != 1 {
		t.Fatalf("Bytes %d over the budget %d with %d entries", c.Bytes(), r.maxBytes, c.Len())
	}
	if ck.inserted-ck.removed != c.Len() {
		t.Fatalf("%d inserted - %d removed != %d resident", ck.inserted, ck.removed, c.Len())
	}
}

// TestModel: random operation sequences against the reference, over
// every combination of bounded and unbounded axes.
func TestModel(t *testing.T) {
	for _, b := range []struct {
		maxEntries int
		maxBytes   int64
	}{{0, 0}, {1, 0}, {3, 0}, {0, 1}, {0, 40}, {4, 40}, {5, 1000}} {
		rng := rand.New(rand.NewSource(int64(b.maxEntries)*1000 + b.maxBytes))
		ck := newChecker(t, b.maxEntries, b.maxBytes)
		for i := 0; i < 5000; i++ {
			ck.step(uint8(rng.Intn(numOps)), uint8(rng.Intn(8)), int64(rng.Intn(30)))
		}
	}
}

// TestRule spells the eviction rule out on a budget of 10.
func TestRule(t *testing.T) {
	c := New[string, int](0, 10)
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	c.Get("a")
	if ev := c.Put("c", 3, 4); ev != 1 {
		t.Fatalf("evicted %d, want 1 (the cold end, b)", ev)
	}
	if _, ok := c.items["b"]; ok {
		t.Fatal("b survived; a was touched and should have")
	}
	// Over the whole budget: everything else goes, the new entry stays
	// alone until the next insert.
	if ev := c.Put("big", 4, 50); ev != 2 || c.Len() != 1 || c.Bytes() != 50 {
		t.Fatalf("oversize Put: evicted %d, %d resident, %d bytes", ev, c.Len(), c.Bytes())
	}
	if ev := c.Put("d", 5, 1); ev != 1 || c.Bytes() != 1 {
		t.Fatalf("insert after oversize: evicted %d, %d bytes", ev, c.Bytes())
	}
}

// FuzzLRU drives the same checker from bytes: two bytes of bounds, then
// three bytes per operation (op, key, cost).
func FuzzLRU(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 5, 1, 2, 5, 0, 1, 0})
	f.Add([]byte{2, 20, 1, 1, 9, 1, 2, 9, 1, 3, 9, 1, 1, 25, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 0, 200, 1, 1, 200, 1, 1, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ck := newChecker(t, int(data[0]%6), int64(data[1]%64))
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			ck.step(ops[0], ops[1]%8, int64(ops[2]))
		}
	})
}

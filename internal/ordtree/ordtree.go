// Package ordtree implements the ordered chunk set used by the Cafe
// and Psychic caches (Section 6): a balanced binary search tree keyed
// by a float64 score (Cafe's virtual timestamp, Psychic's next-request
// time).
//
// Unlike the plain LRU list, items may be (re-)inserted with keys that
// are not larger than all existing keys — the flexibility Cafe needs
// because a chunk "gradually moves up this set according to its
// EWMA-ed IAT value".
//
// The tree is a treap whose per-node priorities are a splitmix64 hash
// of the item ID, making the structure deterministic for a given item
// set regardless of insertion order — important for reproducible
// experiments.
//
// Two APIs share the one treap. Arena is the set itself: its nodes
// live in one slice linked by int32 indices, and an item is addressed
// by the Node handle Insert returned. A caller that already keeps
// per-item state (Cafe's IAT table) stores the handle there, so an
// item is never looked up by ID twice. Tree adds an ID → Node map on
// top for callers that address items by ID only.
package ordtree

import (
	"fmt"
	"math"
)

// Node is the handle of one item in an Arena. The zero Node is Nil,
// so a zeroed handle field reads as "not in the set".
type Node int32

// Nil is the handle of no item.
const Nil Node = 0

type node struct {
	id   uint64
	key  float64
	prio uint64
	l, r Node
}

// Arena is a set of (key, id) items iterable in ascending (key, id)
// order, addressed by Node handles. The caller owns the ID → handle
// association: the arena does not index IDs, so an ID must not be
// inserted twice. The zero value is an empty set.
type Arena struct {
	// nodes[0] is the Nil sentinel and is never linked into the tree.
	nodes []node
	// free holds the slots detached by Remove, so the steady-state
	// evict-then-fill cycle of a full cache allocates nothing. Bounded
	// by the largest item count the arena ever held.
	free []Node
	root Node
	n    int
}

// Len returns the number of items.
func (a *Arena) Len() int { return a.n }

// ID returns the item ID of x.
func (a *Arena) ID(x Node) uint64 { return a.nodes[x].id }

// Key returns the key of x.
func (a *Arena) Key(x Node) float64 { return a.nodes[x].key }

// Insert adds id with the given key and returns its handle. NaN keys
// are rejected with a panic: they would break the strict weak ordering
// and silently corrupt the tree.
func (a *Arena) Insert(id uint64, key float64) Node {
	checkKey(id, key)
	var x Node
	if k := len(a.free); k > 0 {
		x = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		if len(a.nodes) == 0 {
			a.nodes = append(a.nodes, node{})
		}
		if len(a.nodes) > math.MaxInt32 {
			panic("ordtree: more than 2^31-1 items")
		}
		x = Node(len(a.nodes))
		a.nodes = append(a.nodes, node{})
	}
	a.nodes[x] = node{id: id, key: key, prio: splitmix64(id)}
	a.link(x)
	a.n++
	return x
}

// Rekey moves x to a new key. Same item, same priority: the node is
// detached and reinserted in place, allocating nothing. NaN keys panic
// as in Insert.
func (a *Arena) Rekey(x Node, key float64) {
	checkKey(a.nodes[x].id, key)
	a.unlink(x)
	a.nodes[x].key = key
	a.link(x)
}

// Remove deletes x, whose handle becomes free for a later Insert.
func (a *Arena) Remove(x Node) {
	a.unlink(x)
	a.free = append(a.free, x)
	a.n--
}

// Min returns the item with the smallest (key, id), Nil on an empty
// set.
func (a *Arena) Min() Node {
	x := a.root
	if x == Nil {
		return Nil
	}
	for a.nodes[x].l != Nil {
		x = a.nodes[x].l
	}
	return x
}

// Max returns the item with the largest (key, id), Nil on an empty
// set.
func (a *Arena) Max() Node {
	x := a.root
	if x == Nil {
		return Nil
	}
	for a.nodes[x].r != Nil {
		x = a.nodes[x].r
	}
	return x
}

// Ascend calls fn in ascending (key, id) order until fn returns false.
func (a *Arena) Ascend(fn func(id uint64, key float64) bool) {
	a.ascend(a.root, fn)
}

// Descend calls fn in descending (key, id) order until fn returns
// false.
func (a *Arena) Descend(fn func(id uint64, key float64) bool) {
	a.descend(a.root, fn)
}

// AppendSmallestExcludingRange appends to dst up to n items with the
// smallest keys whose IDs fall outside the inclusive ID range
// [lo, hi], and returns the grown slice. Cafe uses it with a packed
// chunk-key range — the chunks of one video are contiguous under
// chunk.ID.Key — to protect the chunks of the request being served
// without building a per-request skip set; pass a recycled dst[:0]
// for an allocation-free eviction scan.
func (a *Arena) AppendSmallestExcludingRange(dst []Node, n int, lo, hi uint64) []Node {
	if n <= 0 {
		return dst
	}
	return a.collectSmallest(a.root, dst, len(dst)+n, lo, hi)
}

// collectSmallest walks in ascending order, appending items whose IDs
// lie outside [lo, hi] until dst reaches want items.
func (a *Arena) collectSmallest(x Node, dst []Node, want int, lo, hi uint64) []Node {
	if x == Nil || len(dst) >= want {
		return dst
	}
	nd := &a.nodes[x]
	dst = a.collectSmallest(nd.l, dst, want, lo, hi)
	if len(dst) >= want {
		return dst
	}
	if nd.id < lo || nd.id > hi {
		dst = append(dst, x)
	}
	return a.collectSmallest(nd.r, dst, want, lo, hi)
}

func (a *Arena) ascend(x Node, fn func(uint64, float64) bool) bool {
	if x == Nil {
		return true
	}
	nd := &a.nodes[x]
	return a.ascend(nd.l, fn) && fn(nd.id, nd.key) && a.ascend(nd.r, fn)
}

func (a *Arena) descend(x Node, fn func(uint64, float64) bool) bool {
	if x == Nil {
		return true
	}
	nd := &a.nodes[x]
	return a.descend(nd.r, fn) && fn(nd.id, nd.key) && a.descend(nd.l, fn)
}

// before reports whether (key, id) orders before node y.
func (a *Arena) before(key float64, id uint64, y Node) bool {
	ny := &a.nodes[y]
	if key != ny.key {
		return key < ny.key
	}
	return id < ny.id
}

// link inserts the detached node x: descend while the subtree root
// outranks x's priority, then split the subtree found there by x's
// (key, id) into x's two children. A treap's shape is a function of
// its (key, id, prio) triples alone — splitmix64 is a bijection, so
// priorities never tie — so this builds the same tree as the textbook
// insert-then-rotate, in two loops without recursion.
func (a *Arena) link(x Node) {
	nx := &a.nodes[x]
	key, id, prio := nx.key, nx.id, nx.prio
	p := &a.root
	for *p != Nil && a.nodes[*p].prio > prio {
		if a.before(key, id, *p) {
			p = &a.nodes[*p].l
		} else {
			p = &a.nodes[*p].r
		}
	}
	t := *p
	l, r := &nx.l, &nx.r
	for t != Nil {
		if !a.before(key, id, t) {
			*l = t
			l = &a.nodes[t].r
			t = *l
		} else {
			*r = t
			r = &a.nodes[t].l
			t = *r
		}
	}
	*l, *r = Nil, Nil
	*p = x
}

// unlink detaches x, found by its (key, id), merging its two subtrees
// into its place by priority. A handle that is not in the set — Nil, or
// a slot already removed — panics before anything changes.
func (a *Arena) unlink(x Node) {
	if x == Nil {
		// The search below stops at the first empty link, which is Nil
		// too, so the sentinel must be caught here.
		panic("ordtree: node 0 is not in the set")
	}
	nx := &a.nodes[x]
	key, id := nx.key, nx.id
	p := &a.root
	for *p != x {
		if *p == Nil {
			panic(fmt.Sprintf("ordtree: node %d is not in the set", x))
		}
		if a.before(key, id, *p) {
			p = &a.nodes[*p].l
		} else {
			p = &a.nodes[*p].r
		}
	}
	l, r := nx.l, nx.r
	for l != Nil && r != Nil {
		if a.nodes[l].prio > a.nodes[r].prio {
			*p = l
			p = &a.nodes[l].r
			l = *p
		} else {
			*p = r
			p = &a.nodes[r].l
			r = *p
		}
	}
	if l != Nil {
		*p = l
	} else {
		*p = r
	}
	nx.l, nx.r = Nil, Nil
}

func checkKey(id uint64, key float64) {
	if math.IsNaN(key) {
		panic(fmt.Sprintf("ordtree: NaN key for id %d", id))
	}
}

// Tree is an ordered map from item ID to float64 key, iterable in
// ascending (key, id) order: an Arena plus the ID → Node map. The zero
// value is not usable; call New.
type Tree struct {
	a    Arena
	byID map[uint64]Node
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{byID: make(map[uint64]Node)}
}

// Len returns the number of items.
func (t *Tree) Len() int { return t.a.Len() }

// Contains reports whether id is present.
func (t *Tree) Contains(id uint64) bool {
	_, ok := t.byID[id]
	return ok
}

// Key returns the key stored for id, with ok=false if absent.
func (t *Tree) Key(id uint64) (float64, bool) {
	x, ok := t.byID[id]
	if !ok {
		return 0, false
	}
	return t.a.Key(x), true
}

// Insert adds id with the given key, replacing any existing entry for
// id. NaN keys panic (see Arena.Insert).
func (t *Tree) Insert(id uint64, key float64) {
	if x, ok := t.byID[id]; ok {
		t.a.Rekey(x, key)
		return
	}
	t.byID[id] = t.a.Insert(id, key)
}

// Remove deletes id, reporting whether it was present.
func (t *Tree) Remove(id uint64) bool {
	x, ok := t.byID[id]
	if !ok {
		return false
	}
	t.a.Remove(x)
	delete(t.byID, id)
	return true
}

// item unpacks a handle for the ID-keyed accessors.
func (t *Tree) item(x Node) (id uint64, key float64, ok bool) {
	if x == Nil {
		return 0, 0, false
	}
	return t.a.ID(x), t.a.Key(x), true
}

// Min returns the item with the smallest (key, id), with ok=false on an
// empty tree.
func (t *Tree) Min() (id uint64, key float64, ok bool) { return t.item(t.a.Min()) }

// Max returns the item with the largest (key, id), with ok=false on an
// empty tree.
func (t *Tree) Max() (id uint64, key float64, ok bool) { return t.item(t.a.Max()) }

// PopMin removes and returns the minimum item.
func (t *Tree) PopMin() (id uint64, key float64, ok bool) {
	id, key, ok = t.Min()
	if ok {
		t.Remove(id)
	}
	return id, key, ok
}

// PopMax removes and returns the maximum item.
func (t *Tree) PopMax() (id uint64, key float64, ok bool) {
	id, key, ok = t.Max()
	if ok {
		t.Remove(id)
	}
	return id, key, ok
}

// Ascend calls fn in ascending (key, id) order until fn returns false.
func (t *Tree) Ascend(fn func(id uint64, key float64) bool) { t.a.Ascend(fn) }

// Descend calls fn in descending (key, id) order until fn returns
// false.
func (t *Tree) Descend(fn func(id uint64, key float64) bool) { t.a.Descend(fn) }

// SmallestExcluding returns up to n item IDs with the smallest keys
// whose IDs are not in skip. LRU-K and GDSP use it to pick eviction
// victims while never evicting chunks of the request being served.
func (t *Tree) SmallestExcluding(n int, skip map[uint64]bool) []uint64 {
	return t.collect(t.Ascend, n, skip)
}

// LargestExcluding is the mirror of SmallestExcluding; Psychic uses it
// to pick the chunks requested farthest in the future.
func (t *Tree) LargestExcluding(n int, skip map[uint64]bool) []uint64 {
	return t.collect(t.Descend, n, skip)
}

// collect gathers up to n IDs not in skip, in walk's order.
func (t *Tree) collect(walk func(func(uint64, float64) bool), n int, skip map[uint64]bool) []uint64 {
	if n <= 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	walk(func(id uint64, _ float64) bool {
		if skip != nil && skip[id] {
			return true
		}
		out = append(out, id)
		return len(out) < n
	})
	return out
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong,
// cheap bit mixer used to derive deterministic treap priorities from
// item IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

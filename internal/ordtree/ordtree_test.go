package ordtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Error("new tree should be empty")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty should report !ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty should report !ok")
	}
	if _, _, ok := tr.PopMin(); ok {
		t.Error("PopMin on empty should report !ok")
	}
	if tr.Remove(1) {
		t.Error("Remove of absent should be false")
	}
	if got := tr.SmallestExcluding(3, nil); len(got) != 0 {
		t.Error("SmallestExcluding on empty should be empty")
	}
}

func TestInsertLookupRemove(t *testing.T) {
	tr := New()
	tr.Insert(1, 5.0)
	tr.Insert(2, 3.0)
	tr.Insert(3, 7.0)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if k, ok := tr.Key(2); !ok || k != 3.0 {
		t.Errorf("Key(2) = %v,%v", k, ok)
	}
	if id, k, ok := tr.Min(); !ok || id != 2 || k != 3.0 {
		t.Errorf("Min = %d,%v,%v", id, k, ok)
	}
	if id, k, ok := tr.Max(); !ok || id != 3 || k != 7.0 {
		t.Errorf("Max = %d,%v,%v", id, k, ok)
	}
	if !tr.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	if tr.Contains(2) {
		t.Error("2 should be gone")
	}
	if id, _, _ := tr.Min(); id != 1 {
		t.Errorf("new Min = %d, want 1", id)
	}
}

func TestInsertReplaces(t *testing.T) {
	tr := New()
	tr.Insert(1, 5.0)
	tr.Insert(1, 1.0) // move down
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace, not duplicate)", tr.Len())
	}
	if k, _ := tr.Key(1); k != 1.0 {
		t.Errorf("Key = %v, want 1.0", k)
	}
	tr.Insert(2, 0.5)
	if id, _, _ := tr.Min(); id != 2 {
		t.Errorf("Min = %d, want 2", id)
	}
	tr.Insert(1, 0.1) // arbitrary downward move, impossible in plain LRU
	if id, _, _ := tr.Min(); id != 1 {
		t.Errorf("Min = %d, want 1 after re-keying", id)
	}
}

func TestNaNPanics(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Error("NaN key should panic")
		}
	}()
	tr.Insert(1, math.NaN())
}

func TestDuplicateKeysOrderedByID(t *testing.T) {
	tr := New()
	tr.Insert(30, 1.0)
	tr.Insert(10, 1.0)
	tr.Insert(20, 1.0)
	var ids []uint64
	tr.Ascend(func(id uint64, _ float64) bool { ids = append(ids, id); return true })
	want := []uint64{10, 20, 30}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Ascend ids = %v, want %v", ids, want)
		}
	}
}

func TestPopMinPopMax(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	if id, _, _ := tr.PopMin(); id != 0 {
		t.Errorf("PopMin = %d", id)
	}
	if id, _, _ := tr.PopMax(); id != 9 {
		t.Errorf("PopMax = %d", id)
	}
	if tr.Len() != 8 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestSmallestExcluding(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	got := tr.SmallestExcluding(3, map[uint64]bool{0: true, 2: true})
	want := []uint64{1, 3, 4}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SmallestExcluding = %v, want %v", got, want)
		}
	}
	if got := tr.SmallestExcluding(0, nil); got != nil {
		t.Error("n=0 should return nil")
	}
	// Asking for more than available (after skips).
	all := map[uint64]bool{}
	for i := uint64(0); i < 9; i++ {
		all[i] = true
	}
	if got := tr.SmallestExcluding(5, all); len(got) != 1 || got[0] != 9 {
		t.Errorf("got %v, want [9]", got)
	}
}

func TestLargestExcluding(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	got := tr.LargestExcluding(3, map[uint64]bool{9: true})
	want := []uint64{8, 7, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LargestExcluding = %v, want %v", got, want)
		}
	}
}

func TestAscendDescendEarlyStop(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, float64(i))
	}
	count := 0
	tr.Ascend(func(uint64, float64) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("Ascend early stop visited %d", count)
	}
	count = 0
	tr.Descend(func(uint64, float64) bool { count++; return false })
	if count != 1 {
		t.Errorf("Descend early stop visited %d", count)
	}
}

// Model-based property: random insert/replace/remove/pop operations
// match a reference implementation (sorted slice).
func TestAgainstReferenceModel(t *testing.T) {
	type pair struct {
		id  uint64
		key float64
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := map[uint64]float64{}
		sorted := func() []pair {
			ps := make([]pair, 0, len(model))
			for id, k := range model {
				ps = append(ps, pair{id, k})
			}
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].key != ps[j].key {
					return ps[i].key < ps[j].key
				}
				return ps[i].id < ps[j].id
			})
			return ps
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0, 1, 2: // insert/replace
				id := uint64(rng.Intn(50))
				key := math.Floor(rng.Float64()*100) / 4 // force duplicate keys
				tr.Insert(id, key)
				model[id] = key
			case 3: // remove
				id := uint64(rng.Intn(50))
				_, inModel := model[id]
				if tr.Remove(id) != inModel {
					return false
				}
				delete(model, id)
			case 4: // pop min
				id, key, ok := tr.PopMin()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					ps := sorted()
					if ps[0].id != id || ps[0].key != key {
						return false
					}
					delete(model, id)
				}
			}
			if tr.Len() != len(model) {
				return false
			}
		}
		// Full in-order traversal must match the model.
		ps := sorted()
		i := 0
		okAll := true
		tr.Ascend(func(id uint64, key float64) bool {
			if i >= len(ps) || ps[i].id != id || ps[i].key != key {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The treap must stay balanced enough for log-time operations: with
// hashed priorities, depth on n sequential IDs should be O(log n).
func TestBalancedDepth(t *testing.T) {
	tr := New()
	const n = 1 << 14
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, float64(i))
	}
	a := &tr.a
	var depth func(x Node) int
	depth = func(x Node) int {
		if x == Nil {
			return 0
		}
		l, r := depth(a.nodes[x].l), depth(a.nodes[x].r)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	d := depth(a.root)
	// Expected depth ~ 3*log2(n) ≈ 42 with very high probability.
	if d > 80 {
		t.Errorf("treap depth %d too large for n=%d", d, n)
	}
}

// checkTreap verifies the structural invariants of a: BST order on
// (key, id), max-heap order on prio, and exactly Len reachable nodes,
// none of them on the free stack.
func checkTreap(t *testing.T, a *Arena) {
	t.Helper()
	free := map[Node]bool{}
	for _, x := range a.free {
		free[x] = true
	}
	reached := 0
	var check func(x, lo, hi Node) bool
	check = func(x, lo, hi Node) bool {
		if x == Nil {
			return true
		}
		reached++
		nd := a.nodes[x]
		switch {
		case free[x],
			lo != Nil && !a.before(a.nodes[lo].key, a.nodes[lo].id, x),
			hi != Nil && !a.before(nd.key, nd.id, hi),
			nd.l != Nil && a.nodes[nd.l].prio > nd.prio,
			nd.r != Nil && a.nodes[nd.r].prio > nd.prio:
			return false
		}
		return check(nd.l, lo, x) && check(nd.r, x, hi)
	}
	if !check(a.root, Nil, Nil) {
		t.Fatal("treap invariants violated")
	}
	if reached != a.Len() {
		t.Fatalf("%d nodes reachable, Len %d", reached, a.Len())
	}
}

// Structural invariants: BST order on (key,id) and max-heap on prio.
func TestTreapInvariants(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		tr.Insert(uint64(rng.Intn(500)), math.Floor(rng.Float64()*50))
		if i%3 == 0 {
			tr.Remove(uint64(rng.Intn(500)))
		}
	}
	checkTreap(t, &tr.a)
}

// The node API against a reference model: random insert, re-key and
// remove through handles keep the set equal to a sorted slice, Min,
// Max, ID and Key agree with it, and the treap invariants hold.
func TestArenaAgainstReferenceModel(t *testing.T) {
	type pair struct {
		id  uint64
		key float64
	}
	rng := rand.New(rand.NewSource(3))
	var a Arena
	handle := map[uint64]Node{}
	model := map[uint64]float64{}
	for op := 0; op < 5000; op++ {
		id := uint64(rng.Intn(200))
		key := math.Floor(rng.Float64()*100) / 4 // force duplicate keys
		x, in := handle[id]
		switch {
		case !in:
			handle[id] = a.Insert(id, key)
			model[id] = key
		case rng.Intn(2) == 0:
			a.Rekey(x, key)
			model[id] = key
		default:
			a.Remove(x)
			delete(handle, id)
			delete(model, id)
		}
		if op%500 != 0 {
			continue
		}
		checkTreap(t, &a)
		ps := make([]pair, 0, len(model))
		for id, k := range model {
			ps = append(ps, pair{id, k})
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].key != ps[j].key {
				return ps[i].key < ps[j].key
			}
			return ps[i].id < ps[j].id
		})
		i := 0
		a.Ascend(func(id uint64, key float64) bool {
			if ps[i] != (pair{id, key}) {
				t.Fatalf("op %d: ascend[%d] = %d/%v, want %+v", op, i, id, key, ps[i])
			}
			i++
			return true
		})
		if i != len(ps) || a.Len() != len(ps) {
			t.Fatalf("op %d: walked %d, Len %d, model %d", op, i, a.Len(), len(ps))
		}
		if mn, mx := a.Min(), a.Max(); a.ID(mn) != ps[0].id || a.ID(mx) != ps[len(ps)-1].id ||
			a.Key(mn) != ps[0].key || a.Key(mx) != ps[len(ps)-1].key {
			t.Fatalf("op %d: Min/Max disagree with the model", op)
		}
	}
	var empty Arena
	if empty.Min() != Nil || empty.Max() != Nil || empty.Len() != 0 {
		t.Error("zero Arena should be empty")
	}
}

func TestArenaRemoveTwicePanics(t *testing.T) {
	var a Arena
	x := a.Insert(1, 1)
	a.Insert(2, 2)
	a.Remove(x)
	defer func() {
		if recover() == nil {
			t.Error("removing a node twice should panic")
		}
		if a.Len() != 1 || a.ID(a.Min()) != 2 {
			t.Error("a rejected remove must leave the set untouched")
		}
	}()
	a.Remove(x)
}

// TestArenaNilHandlePanics: the zero handle is Nil, and neither Remove
// nor Rekey may treat it as the sentinel slot of a live item.
func TestArenaNilHandlePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(a *Arena)
	}{
		{"Remove", func(a *Arena) { a.Remove(Nil) }},
		{"Rekey", func(a *Arena) { a.Rekey(Nil, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a Arena
			a.Insert(1, 1)
			a.Insert(2, 2)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(Nil) should panic", tc.name)
					}
				}()
				tc.op(&a)
			}()
			if a.Len() != 2 || a.ID(a.Min()) != 1 || a.ID(a.Max()) != 2 {
				t.Fatalf("a rejected %s(Nil) must leave the set untouched", tc.name)
			}
			// The next insert gets a fresh slot, never the sentinel.
			if x := a.Insert(3, 3); x == Nil {
				t.Fatal("Insert handed out Nil after a rejected Nil operation")
			}
			if a.Len() != 3 || a.ID(a.Max()) != 3 {
				t.Error("set corrupted after a rejected Nil operation")
			}
		})
	}
}

func TestArenaRekeyNaNPanics(t *testing.T) {
	var a Arena
	x := a.Insert(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("NaN re-key should panic")
		}
		if a.Key(x) != 1 || a.Len() != 1 {
			t.Error("a rejected re-key must leave the item untouched")
		}
	}()
	a.Rekey(x, math.NaN())
}

func BenchmarkInsertRemove(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i % 4096)
		tr.Insert(id, rng.Float64())
	}
}

func BenchmarkSmallestExcluding(b *testing.B) {
	tr := New()
	for i := uint64(0); i < 4096; i++ {
		tr.Insert(i, float64(i))
	}
	skip := map[uint64]bool{1: true, 3: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SmallestExcluding(8, skip)
	}
}

func TestAppendSmallestExcludingRange(t *testing.T) {
	tr := New()
	var a Arena
	for i := uint64(0); i < 64; i++ {
		tr.Insert(i, float64(i))
		a.Insert(i, float64(i))
	}
	ids := func(xs []Node) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = a.ID(x)
		}
		return out
	}
	// Range [10, 20] excluded: results must match SmallestExcluding with
	// the equivalent skip set, for every requested count.
	skip := map[uint64]bool{}
	for i := uint64(10); i <= 20; i++ {
		skip[i] = true
	}
	for n := 0; n <= 70; n += 7 {
		want := tr.SmallestExcluding(n, skip)
		got := ids(a.AppendSmallestExcludingRange(nil, n, 10, 20))
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d ids, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got[%d]=%d, want %d", n, i, got[i], want[i])
			}
		}
	}
	// Appending to a non-empty dst keeps the prefix.
	got := a.AppendSmallestExcludingRange([]Node{Nil}, 2, 10, 20)
	if len(got) != 3 || got[0] != Nil || a.ID(got[1]) != 0 || a.ID(got[2]) != 1 {
		t.Errorf("append to prefix: %v", got)
	}
	// Inverted / empty ranges exclude nothing.
	got = a.AppendSmallestExcludingRange(nil, 3, 50, 40)
	if len(got) != 3 || a.ID(got[0]) != 0 {
		t.Errorf("inverted range: %v", ids(got))
	}
}

// TestSteadyStateAllocFree pins the free-stack guarantee: once an
// arena has reached its high-water item count, the evict-then-fill
// cycle (Remove one node, Insert a new item), the re-key path and the
// range eviction scan allocate nothing at all. Through Tree a re-key is
// allocation-free too; only Remove+Insert of new IDs may let the ID
// map rehash now and then.
func TestSteadyStateAllocFree(t *testing.T) {
	var a Arena
	live := make([]Node, 0, 1024)
	for i := uint64(0); i < 1024; i++ {
		live = append(live, a.Insert(i, float64(i)))
	}
	next := uint64(1024)
	evict := 0
	allocs := testing.AllocsPerRun(200, func() {
		a.Remove(live[evict])
		live[evict] = a.Insert(next, float64(next))
		evict = (evict + 1) % len(live)
		next++
	})
	if allocs != 0 {
		t.Errorf("steady-state Remove+Insert allocates %.2f/op, want 0", allocs)
	}
	x := live[500]
	allocs = testing.AllocsPerRun(200, func() {
		a.Rekey(x, a.Key(x)+1e6)
	})
	if allocs != 0 {
		t.Errorf("re-key allocates %.2f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		scratch = a.AppendSmallestExcludingRange(scratch[:0], 8, 10, 20)
	})
	if allocs != 0 {
		t.Errorf("range eviction scan allocates %.2f/op, want 0", allocs)
	}

	tr := New()
	for i := uint64(0); i < 1024; i++ {
		tr.Insert(i, float64(i))
	}
	// Re-keying an existing ID — the path Psychic, GDSP, LRU-K and
	// Belady take on every hit — is a map read plus Rekey: exactly 0.
	allocs = testing.AllocsPerRun(200, func() {
		k, _ := tr.Key(500)
		tr.Insert(500, k+1e6)
	})
	if allocs != 0 {
		t.Errorf("Tree re-key allocates %.2f/op, want 0", allocs)
	}
	id := uint64(0)
	allocs = testing.AllocsPerRun(200, func() {
		tr.Remove(id)
		tr.Insert(id+1024, float64(id+1024))
		id++
	})
	if allocs > 0.5 {
		t.Errorf("Tree Remove+Insert allocates %.2f/op, want ~0", allocs)
	}
}

var scratch = make([]Node, 0, 16)

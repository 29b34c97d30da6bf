// Package skiplist implements an ordered in-memory key/value map with
// O(log n) expected search, insert and delete, plus forward iterators
// and half-open range scans.
//
// It is the memtable substrate for the simulated LevelDB state
// database: Hyperledger Fabric's default embedded store keeps its
// working set in exactly this kind of sorted structure, and range
// queries (the source of phantom read conflicts in the paper) map to
// iterator scans here.
//
// Clone builds a replica in O(n) time from the source's sorted order:
// every peer replica of the genesis world state is a clone, so set-up
// is linear in the number of keys. A clone keeps all its nodes in one slab and all its
// towers in another; memory a Delete on the clone frees is held until
// the whole clone is unreachable.
//
// The list is not safe for concurrent use, except that several
// goroutines may Clone one list that nobody modifies meanwhile; in the
// discrete-event simulation every peer owns its replica and all events
// run on one goroutine.
package skiplist

import "math/rand"

const (
	maxHeight = 18
	// pBranch is the probability of promoting a node one level.
	pBranchDenom = 4
)

type node struct {
	key   string
	value []byte
	next  []*node
}

// List is an ordered string→[]byte map. Construct with New.
type List struct {
	head   *node
	height int
	length int
	rng    *rand.Rand
}

// New returns an empty list. The seed fixes tower heights so that runs
// are deterministic.
func New(seed int64) *List {
	return &List{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Len reports the number of keys stored.
func (l *List) Len() int { return l.length }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(pBranchDenom) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with node.key >= key, and
// fills prev with the rightmost node before that position on every
// level (used for insert/delete splicing).
func (l *List) findGreaterOrEqual(key string, prev []*node) *node {
	x := l.head
	for level := l.height - 1; level >= 0; level-- {
		for x.next[level] != nil && x.next[level].key < key {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Get returns the value stored under key. The boolean reports whether
// the key was present. The returned slice must not be modified.
func (l *List) Get(key string) ([]byte, bool) {
	n := l.findGreaterOrEqual(key, nil)
	if n != nil && n.key == key {
		return n.value, true
	}
	return nil, false
}

// Has reports whether key is present.
func (l *List) Has(key string) bool {
	_, ok := l.Get(key)
	return ok
}

// Put stores value under key, replacing any previous value.
func (l *List) Put(key string, value []byte) {
	prev := make([]*node, maxHeight)
	n := l.findGreaterOrEqual(key, prev)
	if n != nil && n.key == key {
		n.value = value
		return
	}
	h := l.randomHeight()
	if h > l.height {
		for level := l.height; level < h; level++ {
			prev[level] = l.head
		}
		l.height = h
	}
	nn := &node{key: key, value: value, next: make([]*node, h)}
	for level := 0; level < h; level++ {
		nn.next[level] = prev[level].next[level]
		prev[level].next[level] = nn
	}
	l.length++
}

// Delete removes key and reports whether it was present.
func (l *List) Delete(key string) bool {
	prev := make([]*node, maxHeight)
	n := l.findGreaterOrEqual(key, prev)
	if n == nil || n.key != key {
		return false
	}
	for level := 0; level < len(n.next); level++ {
		if prev[level].next[level] == n {
			prev[level].next[level] = n.next[level]
		}
	}
	for l.height > 1 && l.head.next[l.height-1] == nil {
		l.height--
	}
	l.length--
	return true
}

// Iterator walks keys in ascending order. Use Valid/Next/Key/Value.
type Iterator struct {
	n   *node
	end string // exclusive bound; empty means unbounded
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool {
	if it.n == nil {
		return false
	}
	return it.end == "" || it.n.key < it.end
}

// Next advances to the following entry.
func (it *Iterator) Next() {
	if it.n != nil {
		it.n = it.n.next[0]
	}
}

// Key returns the current key. Only valid while Valid() is true.
func (it *Iterator) Key() string { return it.n.key }

// Value returns the current value. Only valid while Valid() is true.
func (it *Iterator) Value() []byte { return it.n.value }

// Iter returns an iterator over all entries in ascending key order.
func (l *List) Iter() *Iterator {
	return &Iterator{n: l.head.next[0]}
}

// Range returns an iterator over the half-open interval [start, end).
// An empty start begins at the first key; an empty end is unbounded.
// This is the primitive behind Fabric's GetStateByRange.
func (l *List) Range(start, end string) *Iterator {
	var first *node
	if start == "" {
		first = l.head.next[0]
	} else {
		first = l.findGreaterOrEqual(start, nil)
	}
	return &Iterator{n: first, end: end}
}

// Keys returns all keys in ascending order. Intended for tests and
// post-run analysis, not the hot path.
func (l *List) Keys() []string {
	out := make([]string, 0, l.length)
	for it := l.Iter(); it.Valid(); it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// Clone returns a deep copy of the list structure (values are shared,
// which is safe because values are treated as immutable). It only
// reads l, so several goroutines may clone one source at once.
//
// Clone runs in O(n) and compares no keys: one walk of l's ascending
// level-0 chain, then one pass appending each node to every level of
// its tower. It draws one tower height per key, in key order, from
// New(seed)'s rng, so the clone's towers, height and rng state equal
// those of New(seed) followed by a Put of every key in ascending
// order. All nodes share one slab and all towers another: a node a
// later Delete unlinks from the clone stays allocated until the whole
// clone is unreachable.
func (l *List) Clone(seed int64) *List {
	c := New(seed)
	nodes := make([]node, l.length)
	heights := make([]uint8, l.length)
	total := 0
	i := 0
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		h := c.randomHeight()
		nodes[i].key, nodes[i].value = x.key, x.value
		heights[i] = uint8(h)
		total += h
		if h > c.height {
			c.height = h
		}
		i++
	}
	ptrs := make([]*node, total)
	var last [maxHeight]*node
	for level := range last {
		last[level] = c.head
	}
	off := 0
	for i := range nodes {
		n, h := &nodes[i], int(heights[i])
		n.next = ptrs[off : off+h : off+h]
		off += h
		for level := 0; level < h; level++ {
			last[level].next[level] = n
			last[level] = n
		}
	}
	c.length = l.length
	return c
}

package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	l := New(1)
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty list returned a value")
	}
	l.Put("a", []byte("1"))
	l.Put("b", []byte("2"))
	l.Put("a", []byte("3")) // overwrite
	if v, ok := l.Get("a"); !ok || string(v) != "3" {
		t.Fatalf("Get(a) = %q,%v want 3,true", v, ok)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if !l.Delete("a") {
		t.Fatal("Delete(a) = false")
	}
	if l.Delete("a") {
		t.Fatal("second Delete(a) = true")
	}
	if l.Has("a") {
		t.Fatal("deleted key still present")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestIterAscending(t *testing.T) {
	l := New(1)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		l.Put(k, []byte{byte(i)})
	}
	got := l.Keys()
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestRangeHalfOpen(t *testing.T) {
	l := New(1)
	for i := 0; i < 10; i++ {
		l.Put(fmt.Sprintf("k%02d", i), nil)
	}
	var got []string
	for it := l.Range("k03", "k07"); it.Valid(); it.Next() {
		got = append(got, it.Key())
	}
	want := []string{"k03", "k04", "k05", "k06"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
}

func TestRangeOpenEnds(t *testing.T) {
	l := New(1)
	for i := 0; i < 5; i++ {
		l.Put(fmt.Sprintf("k%d", i), nil)
	}
	count := 0
	for it := l.Range("", ""); it.Valid(); it.Next() {
		count++
	}
	if count != 5 {
		t.Fatalf("unbounded range saw %d keys, want 5", count)
	}
	count = 0
	for it := l.Range("k3", ""); it.Valid(); it.Next() {
		count++
	}
	if count != 2 {
		t.Fatalf("range from k3 saw %d keys, want 2", count)
	}
	for it := l.Range("zzz", ""); it.Valid(); it.Next() {
		t.Fatal("range beyond last key yielded entries")
	}
}

func TestRangeStartNotPresent(t *testing.T) {
	l := New(1)
	l.Put("b", nil)
	l.Put("d", nil)
	it := l.Range("c", "")
	if !it.Valid() || it.Key() != "d" {
		t.Fatalf("Range(c) starts at %v, want d", it)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	l := New(1)
	l.Put("a", []byte("1"))
	c := l.Clone(2)
	c.Put("b", []byte("2"))
	l.Delete("a")
	if !c.Has("a") || !c.Has("b") {
		t.Fatal("clone lost entries after mutating original")
	}
	if l.Has("b") {
		t.Fatal("original gained entries from clone")
	}
}

// putBuild is the reference replica Clone must reproduce: New(seed)
// followed by a Put of every key of src in ascending order.
func putBuild(src *List, seed int64) *List {
	l := New(seed)
	for it := src.Iter(); it.Valid(); it.Next() {
		l.Put(it.Key(), it.Value())
	}
	return l
}

// sameShape reports how got differs from want in keys, values, the
// tower height of each node, the chain on every level and the list
// height, or "" when it does not.
func sameShape(got, want *List) string {
	if got.Len() != want.Len() || got.height != want.height {
		return fmt.Sprintf("len/height %d/%d, want %d/%d",
			got.Len(), got.height, want.Len(), want.height)
	}
	for level := 0; level < maxHeight; level++ {
		g, w := got.head.next[level], want.head.next[level]
		for i := 0; g != nil || w != nil; i++ {
			switch {
			case g == nil || w == nil:
				return fmt.Sprintf("level %d: chains end at different nodes (index %d)", level, i)
			case g.key != w.key || !bytes.Equal(g.value, w.value):
				return fmt.Sprintf("level %d: node %d is %q=%q, want %q=%q",
					level, i, g.key, g.value, w.key, w.value)
			case len(g.next) != len(w.next):
				return fmt.Sprintf("node %q has tower %d, want %d", g.key, len(g.next), len(w.next))
			}
			g, w = g.next[level], w.next[level]
		}
	}
	return ""
}

// randomList builds a list of up to n random keys in random order,
// then deletes about a fifth of them.
func randomList(rng *rand.Rand, n int) *List {
	l := New(rng.Int63())
	var keys []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%07d", rng.Intn(4*n+1))
		keys = append(keys, k)
		l.Put(k, []byte(fmt.Sprint(i)))
	}
	for _, k := range keys {
		if rng.Intn(5) == 0 {
			l.Delete(k)
		}
	}
	return l
}

// mutate applies the same rng-driven Put/Delete sequence to every list.
func mutate(seed int64, n int, ls ...*List) {
	for _, l := range ls {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%07d", rng.Intn(4*n+1))
			if rng.Intn(3) == 0 {
				l.Delete(k)
			} else {
				l.Put(k, []byte{byte(i)})
			}
		}
	}
}

// Clone's bulk build must give exactly the towers, height and rng
// state of an ascending Put build: replicas' later Puts then draw the
// same heights as before.
func TestCloneMatchesPutBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 300, 1000, 5000} {
		src := randomList(rng, n)
		srcKeys := src.Keys()
		seed := rng.Int63()
		c, ref := src.Clone(seed), putBuild(src, seed)
		if d := sameShape(c, ref); d != "" {
			t.Fatalf("n=%d: clone: %s", n, d)
		}
		cc, ccRef := c.Clone(seed+1), putBuild(c, seed+1)
		if d := sameShape(cc, ccRef); d != "" {
			t.Fatalf("n=%d: clone of clone: %s", n, d)
		}
		mutate(int64(n), n+50, c, ref, cc, ccRef)
		if d := sameShape(c, ref); d != "" {
			t.Fatalf("n=%d: clone after puts/deletes: %s", n, d)
		}
		if d := sameShape(cc, ccRef); d != "" {
			t.Fatalf("n=%d: clone of clone after puts/deletes: %s", n, d)
		}
		if got := src.Keys(); fmt.Sprint(got) != fmt.Sprint(srcKeys) {
			t.Fatalf("n=%d: cloning or mutating clones changed the source", n)
		}
	}
}

// Clone allocates a fixed number of slabs, however many keys it copies.
func TestCloneAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		src := New(1)
		for i := 0; i < n; i++ {
			src.Put(fmt.Sprintf("key_%06d", i), nil)
		}
		return testing.AllocsPerRun(3, func() { src.Clone(2) })
	}
	small, large := allocs(1000), allocs(100000)
	if small != large || large > 10 {
		t.Fatalf("Clone allocs = %v at 1k keys, %v at 100k; want the same small constant", small, large)
	}
}

// Several goroutines may clone one source at once; under -race this
// fails if Clone ever writes its source.
func TestCloneConcurrent(t *testing.T) {
	src := randomList(rand.New(rand.NewSource(3)), 2000)
	ref := putBuild(src, 11)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := sameShape(src.Clone(11), ref); d != "" {
				t.Errorf("concurrent clone: %s", d)
			}
		}()
	}
	wg.Wait()
}

// Property: the skip list agrees with a reference map under a random
// sequence of put/delete operations, and iteration is sorted.
func TestAgainstReferenceMap(t *testing.T) {
	type op struct {
		Key    uint8
		Val    uint16
		Delete bool
	}
	f := func(ops []op) bool {
		l := New(99)
		ref := map[string]string{}
		for _, o := range ops {
			k := fmt.Sprintf("key%03d", o.Key)
			if o.Delete {
				delete(ref, k)
				l.Delete(k)
			} else {
				v := fmt.Sprint(o.Val)
				ref[k] = v
				l.Put(k, []byte(v))
			}
		}
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get(k)
			if !ok || string(got) != v {
				return false
			}
		}
		keys := l.Keys()
		if !sort.StringsAreSorted(keys) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// Property: every range scan [a,b) returns exactly the reference keys
// in that interval, in order.
func TestRangeProperty(t *testing.T) {
	f := func(keys []uint8, a, b uint8) bool {
		l := New(3)
		ref := map[string]bool{}
		for _, k := range keys {
			s := fmt.Sprintf("k%03d", k)
			l.Put(s, nil)
			ref[s] = true
		}
		lo, hi := fmt.Sprintf("k%03d", a), fmt.Sprintf("k%03d", b)
		var want []string
		for k := range ref {
			if k >= lo && (hi == "" || k < hi) {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var got []string
		for it := l.Range(lo, hi); it.Valid(); it.Next() {
			got = append(got, it.Key())
		}
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestLargeVolume(t *testing.T) {
	l := New(4)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Put(fmt.Sprintf("key%06d", i), []byte{byte(i)})
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key%06d", i)
		if !l.Has(k) {
			t.Fatalf("missing %s", k)
		}
	}
	for i := 0; i < n; i += 2 {
		l.Delete(fmt.Sprintf("key%06d", i))
	}
	if l.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", l.Len(), n/2)
	}
}

func BenchmarkPut(b *testing.B) {
	l := New(1)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(keys[i%1024], nil)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
		l.Put(keys[i], nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%1024])
	}
}

func BenchmarkClone100k(b *testing.B) {
	src := New(1)
	for i := 0; i < 100000; i++ {
		src.Put(fmt.Sprintf("key_%06d", i), []byte(`{"v":0}`))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = src.Clone(int64(i))
	}
}

var cloneSink *List

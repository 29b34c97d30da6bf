package statedb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ledger"
)

func allKinds() []Kind { return []Kind{LevelDB, CouchDB} }

func TestKindString(t *testing.T) {
	if LevelDB.String() != "LevelDB" || CouchDB.String() != "CouchDB" {
		t.Error("Kind.String wrong")
	}
}

func TestGetAbsent(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k, 1)
		if db.Get("nope") != nil {
			t.Errorf("%v: Get on empty db returned value", k)
		}
	}
}

func TestApplyAndGet(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k, 1)
		b := &UpdateBatch{}
		b.Put("a", []byte(`{"n":1}`), ledger.Height{BlockNum: 1, TxNum: 0})
		b.Put("b", []byte(`{"n":2}`), ledger.Height{BlockNum: 1, TxNum: 1})
		if err := db.ApplyUpdates(b, 1); err != nil {
			t.Fatal(err)
		}
		vv := db.Get("a")
		if vv == nil || string(vv.Value) != `{"n":1}` {
			t.Fatalf("%v: Get(a) = %v", k, vv)
		}
		if vv.Version != (ledger.Height{BlockNum: 1, TxNum: 0}) {
			t.Errorf("%v: version = %v", k, vv.Version)
		}
		if db.Savepoint() != 1 {
			t.Errorf("%v: savepoint = %d", k, db.Savepoint())
		}
		if db.Len() != 2 {
			t.Errorf("%v: Len = %d", k, db.Len())
		}
	}
}

func TestDeleteRemovesKey(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k, 1)
		b := &UpdateBatch{}
		b.Put("a", []byte(`{"x":1}`), ledger.Height{BlockNum: 1})
		if err := db.ApplyUpdates(b, 1); err != nil {
			t.Fatal(err)
		}
		b2 := &UpdateBatch{}
		b2.Delete("a", ledger.Height{BlockNum: 2})
		if err := db.ApplyUpdates(b2, 2); err != nil {
			t.Fatal(err)
		}
		if db.Get("a") != nil {
			t.Errorf("%v: deleted key still readable", k)
		}
		if db.Len() != 0 {
			t.Errorf("%v: Len = %d after delete", k, db.Len())
		}
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k, 1)
		b := &UpdateBatch{}
		b.Put("a", []byte(`1`), ledger.Height{BlockNum: 1})
		db.ApplyUpdates(b, 1)
		b2 := &UpdateBatch{}
		b2.Put("a", []byte(`2`), ledger.Height{BlockNum: 5, TxNum: 3})
		db.ApplyUpdates(b2, 5)
		vv := db.Get("a")
		if vv.Version != (ledger.Height{BlockNum: 5, TxNum: 3}) {
			t.Errorf("%v: version after overwrite = %v", k, vv.Version)
		}
	}
}

func TestGetRangeOrderedHalfOpen(t *testing.T) {
	for _, k := range allKinds() {
		db := New(k, 1)
		b := &UpdateBatch{}
		for i := 0; i < 10; i++ {
			b.Put(fmt.Sprintf("k%02d", i), []byte(`{}`), ledger.Height{BlockNum: 1, TxNum: uint64(i)})
		}
		db.ApplyUpdates(b, 1)
		kvs := db.GetRange("k02", "k05")
		if len(kvs) != 3 || kvs[0].Key != "k02" || kvs[2].Key != "k04" {
			t.Errorf("%v: GetRange = %v", k, kvs)
		}
		all := db.GetRange("", "")
		if len(all) != 10 {
			t.Errorf("%v: unbounded range returned %d", k, len(all))
		}
	}
}

func TestLevelDBRejectsRichQuery(t *testing.T) {
	db := New(LevelDB, 1)
	if _, err := db.ExecuteQuery(`{"a":1}`); err == nil {
		t.Fatal("LevelDB accepted a rich query")
	}
}

func TestCouchDBRichQuery(t *testing.T) {
	db := New(CouchDB, 1)
	b := &UpdateBatch{}
	b.Put("art1", []byte(`{"owner":"alice","plays":5}`), ledger.Height{BlockNum: 1})
	b.Put("art2", []byte(`{"owner":"bob","plays":9}`), ledger.Height{BlockNum: 1})
	b.Put("art3", []byte(`{"owner":"alice","plays":12}`), ledger.Height{BlockNum: 1})
	b.Put("blob", []byte(`not-json`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)

	kvs, err := db.ExecuteQuery(`{"owner":"alice"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "art1" || kvs[1].Key != "art3" {
		t.Fatalf("query result = %v", kvs)
	}
	kvs, err = db.ExecuteQuery(`{"plays":{"$gt":6}}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("numeric query result = %v", kvs)
	}
	if _, err := db.ExecuteQuery(`{"$bad":1}`); err == nil {
		t.Fatal("invalid selector accepted")
	}
}

func TestCouchDBQueryAfterDelete(t *testing.T) {
	db := New(CouchDB, 1)
	b := &UpdateBatch{}
	b.Put("d1", []byte(`{"t":"x"}`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)
	b2 := &UpdateBatch{}
	b2.Delete("d1", ledger.Height{BlockNum: 2})
	db.ApplyUpdates(b2, 2)
	kvs, err := db.ExecuteQuery(`{"t":"x"}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatalf("query saw deleted doc: %v", kvs)
	}
}

func TestCouchDBNonJSONValueOverwrite(t *testing.T) {
	db := New(CouchDB, 1)
	b := &UpdateBatch{}
	b.Put("k", []byte(`{"a":1}`), ledger.Height{BlockNum: 1})
	db.ApplyUpdates(b, 1)
	b2 := &UpdateBatch{}
	b2.Put("k", []byte(`raw-bytes`), ledger.Height{BlockNum: 2})
	db.ApplyUpdates(b2, 2)
	kvs, err := db.ExecuteQuery(`{"a":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Fatal("query matched stale document after non-JSON overwrite")
	}
	if vv := db.Get("k"); string(vv.Value) != "raw-bytes" {
		t.Fatalf("Get = %q", vv.Value)
	}
}

// Property: both backends agree with each other and with a reference
// map under random batches.
func TestBackendsAgree(t *testing.T) {
	type wr struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(batches [][]wr) bool {
		ldb, cdb := New(LevelDB, 7), New(CouchDB, 7)
		ref := map[string]string{}
		for bi, ops := range batches {
			b := &UpdateBatch{}
			h := uint64(bi + 1)
			for ti, o := range ops {
				key := fmt.Sprintf("key%03d", o.Key)
				if o.Del {
					b.Delete(key, ledger.Height{BlockNum: h, TxNum: uint64(ti)})
					delete(ref, key)
				} else {
					val := fmt.Sprintf(`{"v":%d}`, o.Val)
					b.Put(key, []byte(val), ledger.Height{BlockNum: h, TxNum: uint64(ti)})
					ref[key] = val
				}
			}
			if ldb.ApplyUpdates(b, h) != nil || cdb.ApplyUpdates(b, h) != nil {
				return false
			}
		}
		if ldb.Len() != len(ref) || cdb.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			lv, cv := ldb.Get(k), cdb.Get(k)
			if lv == nil || cv == nil || string(lv.Value) != v || string(cv.Value) != v {
				return false
			}
			if lv.Version != cv.Version {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLevelDBGet(b *testing.B) {
	db := New(LevelDB, 1)
	batch := &UpdateBatch{}
	for i := 0; i < 10000; i++ {
		batch.Put(fmt.Sprintf("key%06d", i), []byte(`{"n":1}`), ledger.Height{BlockNum: 1})
	}
	db.ApplyUpdates(batch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get(fmt.Sprintf("key%06d", i%10000))
	}
}

func BenchmarkCouchDBRichQuery(b *testing.B) {
	db := New(CouchDB, 1)
	batch := &UpdateBatch{}
	for i := 0; i < 1000; i++ {
		batch.Put(fmt.Sprintf("key%06d", i),
			[]byte(fmt.Sprintf(`{"owner":"o%d","n":%d}`, i%10, i)), ledger.Height{BlockNum: 1})
	}
	db.ApplyUpdates(batch, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ExecuteQuery(`{"owner":"o3"}`)
	}
}

// benchmarkGetRange scans 1000 voter-sized keys, the range every DV
// vote reads at endorsement and validation.
func benchmarkGetRange(b *testing.B, kind Kind) {
	db := New(kind, 1)
	batch := &UpdateBatch{}
	for i := 0; i < 1000; i++ {
		batch.Put(fmt.Sprintf("voter_%04d", i), []byte(`{"voterId":"1","voted":false}`),
			ledger.Height{BlockNum: 1, TxNum: uint64(i)})
	}
	db.ApplyUpdates(batch, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(db.GetRange("voter_", "voter_~")); n != 1000 {
			b.Fatalf("scanned %d keys, want 1000", n)
		}
	}
}

func BenchmarkCouchDBGetRange1000(b *testing.B) { benchmarkGetRange(b, CouchDB) }

func BenchmarkLevelDBGetRange1000(b *testing.B) { benchmarkGetRange(b, LevelDB) }

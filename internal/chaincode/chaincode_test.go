package chaincode

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

func seeded(kind statedb.Kind) statedb.VersionedDB {
	db := statedb.New(kind, 1)
	b := &statedb.UpdateBatch{}
	b.Put("k1", []byte(`{"n":1}`), ledger.Height{BlockNum: 1, TxNum: 0})
	b.Put("k2", []byte(`{"n":2}`), ledger.Height{BlockNum: 1, TxNum: 1})
	b.Put("k3", []byte(`{"n":3}`), ledger.Height{BlockNum: 2, TxNum: 0})
	db.ApplyUpdates(b, 2)
	return db
}

func TestGetStateRecordsVersion(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	v, err := s.GetState("k1")
	if err != nil || string(v) != `{"n":1}` {
		t.Fatalf("GetState = %q, %v", v, err)
	}
	rw := s.RWSet()
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "k1" ||
		rw.Reads[0].Version != (ledger.Height{BlockNum: 1, TxNum: 0}) {
		t.Fatalf("read set = %+v", rw.Reads)
	}
}

func TestGetStateAbsentKeyRecordsZeroVersion(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	v, err := s.GetState("missing")
	if err != nil || v != nil {
		t.Fatalf("GetState(missing) = %q, %v", v, err)
	}
	if len(s.RWSet().Reads) != 1 || s.RWSet().Reads[0].Version != ledger.ZeroHeight {
		t.Fatalf("read set = %+v", s.RWSet().Reads)
	}
}

func TestDuplicateReadRecordedOnce(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.GetState("k1")
	s.GetState("k1")
	if len(s.RWSet().Reads) != 1 {
		t.Fatalf("duplicate read recorded twice: %+v", s.RWSet().Reads)
	}
	if s.Trace().Gets != 2 {
		t.Fatalf("trace gets = %d, want 2", s.Trace().Gets)
	}
}

func TestNoReadYourOwnWrites(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.PutState("k1", []byte("new"))
	v, _ := s.GetState("k1")
	if string(v) != `{"n":1}` {
		t.Fatalf("GetState after PutState = %q, want committed value", v)
	}
}

func TestLastWriteWins(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	s.PutState("k9", []byte("a"))
	s.PutState("k9", []byte("b"))
	s.DelState("k9")
	rw := s.RWSet()
	if len(rw.Writes) != 1 || !rw.Writes[0].IsDelete {
		t.Fatalf("writes = %+v", rw.Writes)
	}
	if s.Trace().Puts != 2 || s.Trace().Deletes != 1 {
		t.Fatalf("trace = %+v", s.Trace())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	if _, err := s.GetState(""); err == nil {
		t.Error("GetState accepted empty key")
	}
	if err := s.PutState("", nil); err == nil {
		t.Error("PutState accepted empty key")
	}
	if err := s.DelState(""); err == nil {
		t.Error("DelState accepted empty key")
	}
}

func TestRangeRecordsQueryInfo(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	kvs, err := s.GetStateByRange("k1", "k3")
	if err != nil || len(kvs) != 2 {
		t.Fatalf("range = %v, %v", kvs, err)
	}
	rw := s.RWSet()
	if len(rw.RangeQueries) != 1 {
		t.Fatalf("range queries = %+v", rw.RangeQueries)
	}
	rq := rw.RangeQueries[0]
	if rq.StartKey != "k1" || rq.EndKey != "k3" || len(rq.Reads) != 2 || rq.Unchecked {
		t.Fatalf("range query info = %+v", rq)
	}
	if s.Trace().Ranges != 1 || s.Trace().RangeKeys != 2 {
		t.Fatalf("trace = %+v", s.Trace())
	}
}

func TestRichQueryUncheckedOnCouch(t *testing.T) {
	s := NewStub(seeded(statedb.CouchDB))
	if !s.SupportsRichQueries() {
		t.Fatal("CouchDB stub reports no rich queries")
	}
	kvs, err := s.GetQueryResult(`{"n":{"$gte":2}}`)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("query = %v, %v", kvs, err)
	}
	rw := s.RWSet()
	if len(rw.RangeQueries) != 1 || !rw.RangeQueries[0].Unchecked {
		t.Fatalf("rich query not recorded unchecked: %+v", rw.RangeQueries)
	}
	if len(rw.Reads) != 0 {
		t.Fatal("rich query polluted the plain read set")
	}
	if s.Trace().Queries != 1 || s.Trace().QueryDocs != 2 || s.Trace().ScannedLen != 3 {
		t.Fatalf("trace = %+v", s.Trace())
	}
}

func TestRichQueryFailsOnLevelDB(t *testing.T) {
	s := NewStub(seeded(statedb.LevelDB))
	if s.SupportsRichQueries() {
		t.Fatal("LevelDB stub reports rich queries")
	}
	if _, err := s.GetQueryResult(`{"n":1}`); err == nil {
		t.Fatal("rich query succeeded on LevelDB")
	}
}

type fakeCC struct{ name string }

func (f *fakeCC) Name() string                         { return f.name }
func (f *fakeCC) Init(*Stub) error                     { return nil }
func (f *fakeCC) Invoke(*Stub, string, []string) error { return nil }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("fake", func() Chaincode { return &fakeCC{name: "fake"} })
	cc, err := r.New("fake")
	if err != nil || cc.Name() != "fake" {
		t.Fatalf("New = %v, %v", cc, err)
	}
	if _, err := r.New("nope"); err == nil {
		t.Fatal("unknown chaincode instantiated")
	}
}

// refStub is the read/write bookkeeping the stub kept before it
// scanned small sets: a map of keys read and a map from key to write
// index, both built on every stub.
type refStub struct {
	db      statedb.VersionedDB
	rw      ledger.RWSet
	readKey map[string]bool
	writes  map[string]int
}

func (s *refStub) get(key string) []byte {
	vv := s.db.Get(key)
	if !s.readKey[key] {
		s.readKey[key] = true
		r := ledger.KVRead{Key: key}
		if vv != nil {
			r.Version = vv.Version
		}
		s.rw.Reads = append(s.rw.Reads, r)
	}
	if vv == nil {
		return nil
	}
	return vv.Value
}

func (s *refStub) write(w ledger.KVWrite) {
	if i, ok := s.writes[w.Key]; ok {
		s.rw.Writes[i] = w
		return
	}
	s.writes[w.Key] = len(s.rw.Writes)
	s.rw.Writes = append(s.rw.Writes, w)
}

// TestStubMatchesMapReference drives the stub and the map-based
// reference through random gets, puts and deletes whose read and write
// sets grow past smallSet, with repeated reads, overwrites and deletes
// of buffered keys, and requires identical read/write sets.
func TestStubMatchesMapReference(t *testing.T) {
	db := statedb.New(statedb.LevelDB, 1)
	b := &statedb.UpdateBatch{}
	for i := 0; i < 30; i += 2 { // odd keys stay absent
		b.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}, ledger.Height{BlockNum: 1, TxNum: uint64(i)})
	}
	db.ApplyUpdates(b, 1)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		s := NewStub(db)
		ref := &refStub{db: db, readKey: map[string]bool{}, writes: map[string]int{}}
		keys := 1 + rng.Intn(30)
		for op := rng.Intn(80); op > 0; op-- {
			key := fmt.Sprintf("k%02d", rng.Intn(keys))
			switch rng.Intn(3) {
			case 0:
				got, err := s.GetState(key)
				if want := ref.get(key); err != nil || string(got) != string(want) {
					t.Fatalf("GetState(%s) = %q, %v; want %q", key, got, err, want)
				}
			case 1:
				v := []byte{byte(op)}
				s.PutState(key, v)
				ref.write(ledger.KVWrite{Key: key, Value: v})
			default:
				s.DelState(key)
				ref.write(ledger.KVWrite{Key: key, IsDelete: true})
			}
		}
		if !reflect.DeepEqual(*s.RWSet(), ref.rw) {
			t.Fatalf("trial %d (%d keys): rwset %+v, reference %+v", trial, keys, *s.RWSet(), ref.rw)
		}
	}
}

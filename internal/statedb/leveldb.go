package statedb

import (
	"errors"
	"sync/atomic"

	"repro/internal/skiplist"
)

// levelDB is the embedded sorted-store backend. Values live in a skip
// list (the memtable structure of the real LevelDB); versions are
// encoded inline with the value.
type levelDB struct {
	mem       *skiplist.List
	savepoint atomic.Uint64
}

func newLevelDB(seed int64) *levelDB {
	return &levelDB{mem: skiplist.New(seed)}
}

func (db *levelDB) Kind() Kind { return LevelDB }

func (db *levelDB) Get(key string) *VersionedValue {
	raw, ok := db.mem.Get(key)
	if !ok {
		return nil
	}
	vv := decodeVV(raw)
	return &vv
}

func (db *levelDB) GetRange(start, end string) []KV {
	var out []KV
	for it := db.mem.Range(start, end); it.Valid(); it.Next() {
		vv := decodeVV(it.Value())
		out = append(out, KV{Key: it.Key(), Value: vv.Value, Version: vv.Version})
	}
	return out
}

// ExecuteQuery always fails: LevelDB has no rich-query support. Users
// of the paper's recommendation #3 design chaincodes so this is never
// needed.
func (db *levelDB) ExecuteQuery(string) ([]KV, error) {
	return nil, errors.New("statedb: rich queries are not supported by LevelDB")
}

func (db *levelDB) ApplyUpdates(batch *UpdateBatch, height uint64) error {
	for _, w := range batch.Writes {
		if w.IsDelete {
			db.mem.Delete(w.Key)
			continue
		}
		db.mem.Put(w.Key, encodeVV(&VersionedValue{Value: w.Value, Version: w.Version}))
	}
	db.savepoint.Store(height)
	return nil
}

func (db *levelDB) Savepoint() uint64 { return db.savepoint.Load() }

func (db *levelDB) Len() int { return db.mem.Len() }

func (db *levelDB) Clone(seed int64) VersionedDB {
	c := newLevelDB(seed)
	c.mem = db.mem.Clone(seed)
	c.savepoint.Store(db.savepoint.Load())
	return c
}

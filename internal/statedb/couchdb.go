package statedb

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/couchq"
	"repro/internal/skiplist"
)

// couchDB is the external JSON document-store backend. Documents are
// kept decoded alongside the raw value so selector queries do not
// re-parse on every match; a skip list provides the ordered key index
// used for range scans.
type couchDB struct {
	index     *skiplist.List // key -> encoded VersionedValue
	docs      map[string]map[string]interface{}
	savepoint atomic.Uint64
}

func newCouchDB(seed int64) *couchDB {
	return &couchDB{
		index: skiplist.New(seed),
		docs:  map[string]map[string]interface{}{},
	}
}

func (db *couchDB) Kind() Kind { return CouchDB }

func (db *couchDB) Get(key string) *VersionedValue {
	raw, ok := db.index.Get(key)
	if !ok {
		return nil
	}
	vv := decodeVV(raw)
	return &vv
}

func (db *couchDB) GetRange(start, end string) []KV {
	var out []KV
	for it := db.index.Range(start, end); it.Valid(); it.Next() {
		vv := decodeVV(it.Value())
		out = append(out, KV{Key: it.Key(), Value: vv.Value, Version: vv.Version})
	}
	return out
}

// ExecuteQuery evaluates a Mango selector over every document, in key
// order. Non-JSON values are skipped, mirroring CouchDB attachments.
func (db *couchDB) ExecuteQuery(query string) ([]KV, error) {
	sel, err := couchq.Parse([]byte(query))
	if err != nil {
		return nil, err
	}
	var out []KV
	for it := db.index.Iter(); it.Valid(); it.Next() {
		doc, ok := db.docs[it.Key()]
		if !ok {
			continue
		}
		if sel.MatchesDoc(doc) {
			vv := decodeVV(it.Value())
			out = append(out, KV{Key: it.Key(), Value: vv.Value, Version: vv.Version})
		}
	}
	return out, nil
}

func (db *couchDB) ApplyUpdates(batch *UpdateBatch, height uint64) error {
	for _, w := range batch.Writes {
		if w.IsDelete {
			db.index.Delete(w.Key)
			delete(db.docs, w.Key)
			continue
		}
		db.index.Put(w.Key, encodeVV(&VersionedValue{Value: w.Value, Version: w.Version}))
		var doc map[string]interface{}
		if err := json.Unmarshal(w.Value, &doc); err == nil {
			db.docs[w.Key] = doc
		} else {
			delete(db.docs, w.Key) // value is not a JSON object
		}
	}
	db.savepoint.Store(height)
	return nil
}

func (db *couchDB) Savepoint() uint64 { return db.savepoint.Load() }

func (db *couchDB) Len() int { return db.index.Len() }

func (db *couchDB) Clone(seed int64) VersionedDB {
	c := newCouchDB(seed)
	c.index = db.index.Clone(seed)
	for k, v := range db.docs {
		c.docs[k] = v // docs are replaced wholesale on write, never mutated
	}
	c.savepoint.Store(db.savepoint.Load())
	return c
}

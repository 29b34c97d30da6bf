package statedb

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/couchq"
	"repro/internal/skiplist"
)

// couchDB is the external JSON document-store backend. A skip list
// provides the ordered key index used for range scans. Documents are
// decoded lazily: the first selector query to reach a key decodes its
// value and caches the result until the key is next written, so
// commits, which vastly outnumber rich queries, never parse JSON.
// ExecuteQuery therefore writes the cache: like ApplyUpdates, it must
// not run concurrently with other calls on the same replica.
type couchDB struct {
	index     *skiplist.List // key -> encoded VersionedValue
	docs      map[string]couchDoc
	savepoint atomic.Uint64
}

// couchDoc is one cached decode. ok is false when the value is not a
// JSON object; a JSON null is an object with a nil map.
type couchDoc struct {
	fields map[string]interface{}
	ok     bool
}

// decodeDoc decodes a stored value for selector matching.
func decodeDoc(raw []byte) couchDoc {
	var fields map[string]interface{}
	if err := json.Unmarshal(raw, &fields); err != nil {
		return couchDoc{}
	}
	return couchDoc{fields: fields, ok: true}
}

func newCouchDB(seed int64) *couchDB {
	return &couchDB{
		index: skiplist.New(seed),
		docs:  map[string]couchDoc{},
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
		doc, cached := db.docs[it.Key()]
		if !cached {
			doc = decodeDoc(decodeVV(it.Value()).Value)
			db.docs[it.Key()] = doc
		}
		if doc.ok && sel.MatchesDoc(doc.fields) {
			vv := decodeVV(it.Value())
			out = append(out, KV{Key: it.Key(), Value: vv.Value, Version: vv.Version})
		}
	}
	return out, nil
}

func (db *couchDB) ApplyUpdates(batch *UpdateBatch, height uint64) error {
	for _, w := range batch.Writes {
		delete(db.docs, w.Key)
		if w.IsDelete {
			db.index.Delete(w.Key)
			continue
		}
		db.index.Put(w.Key, encodeVV(&VersionedValue{Value: w.Value, Version: w.Version}))
	}
	db.savepoint.Store(height)
	return nil
}

func (db *couchDB) Savepoint() uint64 { return db.savepoint.Load() }

func (db *couchDB) Len() int { return db.index.Len() }

func (db *couchDB) Clone(seed int64) VersionedDB {
	c := &couchDB{index: db.index.Clone(seed), docs: make(map[string]couchDoc, len(db.docs))}
	for k, v := range db.docs {
		c.docs[k] = v // decoded maps are dropped on write, never mutated
	}
	c.savepoint.Store(db.savepoint.Load())
	return c
}

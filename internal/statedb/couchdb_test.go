package statedb

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/couchq"
	"repro/internal/ledger"
)

// eagerCouch is the reference: it decodes every written value at
// commit time, the way the backend did before documents were decoded
// on first query.
type eagerCouch struct {
	vals map[string]VersionedValue
	docs map[string]map[string]interface{}
}

func newEagerCouch() *eagerCouch {
	return &eagerCouch{vals: map[string]VersionedValue{}, docs: map[string]map[string]interface{}{}}
}

func (r *eagerCouch) apply(b *UpdateBatch) {
	for _, w := range b.Writes {
		if w.IsDelete {
			delete(r.vals, w.Key)
			delete(r.docs, w.Key)
			continue
		}
		r.vals[w.Key] = VersionedValue{Value: w.Value, Version: w.Version}
		var doc map[string]interface{}
		if err := json.Unmarshal(w.Value, &doc); err == nil {
			r.docs[w.Key] = doc
		} else {
			delete(r.docs, w.Key)
		}
	}
}

func (r *eagerCouch) clone() *eagerCouch {
	c := newEagerCouch()
	for k, v := range r.vals {
		c.vals[k] = v
	}
	for k, v := range r.docs {
		c.docs[k] = v
	}
	return c
}

func (r *eagerCouch) query(t *testing.T, query string) []KV {
	sel, err := couchq.Parse([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(r.vals))
	for k := range r.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []KV
	for _, k := range keys {
		if doc, ok := r.docs[k]; ok && sel.MatchesDoc(doc) {
			out = append(out, KV{Key: k, Value: r.vals[k].Value, Version: r.vals[k].Version})
		}
	}
	return out
}

// Randomized equivalence of lazy decoding with the eager reference:
// writes, deletes, non-object values (raw bytes, arrays, strings,
// numbers) and JSON null, clones written on either side afterwards,
// and selector queries interleaved throughout.
func TestCouchDBLazyDocsMatchEager(t *testing.T) {
	values := []string{
		`{"a":1}`, `{"a":3,"b":"x"}`, `{"b":"x"}`, `{"a":{"n":2}}`, `{}`,
		`null`, `[1,2]`, `"str"`, `7`, `not-json`, `{"a":`,
	}
	queries := []string{
		`{}`, `{"a":1}`, `{"a":{"$gt":2}}`, `{"a":{"$exists":false}}`,
		`{"b":"x"}`, `{"$or":[{"a":1},{"b":"x"}]}`, `{"a.n":2}`,
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dbs := []VersionedDB{New(CouchDB, seed)}
		refs := []*eagerCouch{newEagerCouch()}
		height := uint64(0)
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(dbs))
			switch op := rng.Intn(10); {
			case op < 5:
				height++
				b := &UpdateBatch{}
				for n := rng.Intn(6); n >= 0; n-- {
					key := fmt.Sprintf("k%02d", rng.Intn(30))
					h := ledger.Height{BlockNum: height, TxNum: uint64(n)}
					if rng.Intn(5) == 0 {
						b.Delete(key, h)
					} else {
						b.Put(key, []byte(values[rng.Intn(len(values))]), h)
					}
				}
				if err := dbs[i].ApplyUpdates(b, height); err != nil {
					t.Fatal(err)
				}
				refs[i].apply(b)
			case op < 6 && len(dbs) < 6:
				dbs = append(dbs, dbs[i].Clone(seed+int64(len(dbs))))
				refs = append(refs, refs[i].clone())
			default:
				q := queries[rng.Intn(len(queries))]
				got, err := dbs[i].ExecuteQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := refs[i].query(t, q); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d db %d query %s:\n got %v\nwant %v", seed, step, i, q, got, want)
				}
			}
		}
	}
}

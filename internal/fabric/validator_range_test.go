package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ledger"
	"repro/internal/statedb"
)

// rangeUnchangedMerged is the reference phantom check: it materializes
// the committed scan with the overlay applied, collects the keys it
// kept, and compares the whole list with the observation.
func rangeUnchangedMerged(current []statedb.KV, rq ledger.RangeQueryInfo, overlay map[string]ledger.Height, overlayDel map[string]bool) bool {
	merged := make([]ledger.KVRead, 0, len(current))
	seen := map[string]bool{}
	for _, kv := range current {
		if overlayDel[kv.Key] {
			continue
		}
		ver := kv.Version
		if h, ok := overlay[kv.Key]; ok {
			ver = h
		}
		merged = append(merged, ledger.KVRead{Key: kv.Key, Version: ver})
		seen[kv.Key] = true
	}
	for key := range overlay {
		if !seen[key] && key >= rq.StartKey && (rq.EndKey == "" || key < rq.EndKey) {
			return false
		}
	}
	if len(merged) != len(rq.Reads) {
		return false
	}
	for i, r := range rq.Reads {
		if merged[i].Key != r.Key || merged[i].Version != r.Version {
			return false
		}
	}
	return true
}

// Property: the streaming rangeUnchanged agrees with the merged-slice
// reference on random committed state × block overlay × deletes ×
// observations, on both backends.
func TestRangeUnchangedMatchesMergedReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	key := func() string { return fmt.Sprintf("k%02d", r.Intn(30)) }
	height := func() ledger.Height {
		return ledger.Height{BlockNum: uint64(r.Intn(3)), TxNum: uint64(r.Intn(2))}
	}
	outcomes := map[bool]int{}
	for i := 0; i < 3000; i++ {
		kind := statedb.LevelDB
		if i%2 == 1 {
			kind = statedb.CouchDB
		}
		db := statedb.New(kind, int64(i))
		batch := &statedb.UpdateBatch{}
		for n := r.Intn(20); n > 0; n-- {
			batch.Put(key(), []byte("{}"), height())
		}
		if err := db.ApplyUpdates(batch, 1); err != nil {
			t.Fatal(err)
		}

		// The validator keeps overlay and overlayDel disjoint.
		overlay := map[string]ledger.Height{}
		overlayDel := map[string]bool{}
		for n := r.Intn(4); n > 0; n-- {
			if k := key(); r.Intn(2) == 0 {
				overlay[k] = height()
				delete(overlayDel, k)
			} else {
				overlayDel[k] = true
				delete(overlay, k)
			}
		}

		rq := ledger.RangeQueryInfo{}
		if r.Intn(4) > 0 {
			rq.StartKey = key()
		}
		if r.Intn(4) > 0 {
			rq.EndKey = key()
		}
		current := db.GetRange(rq.StartKey, rq.EndKey)
		// Observe the scan as validation will see it, then perturb it
		// half of the time.
		for _, kv := range current {
			if overlayDel[kv.Key] {
				continue
			}
			ver := kv.Version
			if h, ok := overlay[kv.Key]; ok {
				ver = h
			}
			rq.Reads = append(rq.Reads, ledger.KVRead{Key: kv.Key, Version: ver})
		}
		if n := len(rq.Reads); r.Intn(2) == 0 {
			switch r.Intn(4) {
			case 0:
				rq.Reads = append(rq.Reads, ledger.KVRead{Key: "k99"})
			case 1:
				if n > 0 {
					rq.Reads = rq.Reads[:n-1]
				}
			case 2:
				if n > 0 {
					rq.Reads[r.Intn(n)].Version = ledger.Height{BlockNum: 9}
				}
			case 3:
				if n > 0 {
					rq.Reads[r.Intn(n)].Key = key()
				}
			}
		}

		v := &validator{db: db}
		want := rangeUnchangedMerged(current, rq, overlay, overlayDel)
		if got := v.rangeUnchanged(rq, overlay, overlayDel); got != want {
			t.Fatalf("case %d: rangeUnchanged = %v, reference %v\nrange [%q,%q) reads %v\noverlay %v deletes %v",
				i, got, want, rq.StartKey, rq.EndKey, rq.Reads, overlay, overlayDel)
		}
		outcomes[want]++
	}
	if outcomes[true] < 300 || outcomes[false] < 300 {
		t.Fatalf("unbalanced cases: %d unchanged, %d phantom", outcomes[true], outcomes[false])
	}
}

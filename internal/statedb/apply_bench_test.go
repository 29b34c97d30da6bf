package statedb_test

import (
	"math/rand"
	"testing"

	"repro/internal/cctest"
	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// ehrBlock simulates 100 EHR invocations (the default block size)
// against the genesis state and returns their writes as one commit
// batch, the unit a peer's state-DB commit processes per block.
func ehrBlock(b *testing.B, kind statedb.Kind) (statedb.VersionedDB, *statedb.UpdateBatch) {
	cc := ehr.New()
	db, err := cctest.InitState(cc, kind)
	if err != nil {
		b.Fatal(err)
	}
	gen, rng := ehr.NewWorkload(1), rand.New(rand.NewSource(1))
	batch := &statedb.UpdateBatch{}
	for tx := 0; tx < 100; tx++ {
		inv := gen.Next(rng)
		stub, err := cctest.Invoke(cc, db, inv.Function, inv.Args...)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range stub.RWSet().Writes {
			batch.Put(w.Key, w.Value, ledger.Height{BlockNum: 1, TxNum: uint64(tx)})
		}
	}
	return db, batch
}

func benchmarkApplyEHRBlock(b *testing.B, kind statedb.Kind) {
	db, batch := ehrBlock(b, kind)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.ApplyUpdates(batch, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyUpdates_EHRBlock(b *testing.B) {
	b.Run("LevelDB", func(b *testing.B) { benchmarkApplyEHRBlock(b, statedb.LevelDB) })
	b.Run("CouchDB", func(b *testing.B) { benchmarkApplyEHRBlock(b, statedb.CouchDB) })
}

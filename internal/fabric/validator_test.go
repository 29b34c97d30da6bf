package fabric

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
)

// harness builds a minimal network for direct validator tests.
func harness(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Duration = time.Second
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// endorse produces a consistent endorsement set for an rwset from the
// first peer of each org.
func endorse(nw *Network, rw *ledger.RWSet) []*ledger.Endorsement {
	digest := rw.Digest()
	var ends []*ledger.Endorsement
	for _, org := range nw.orgs {
		p := nw.peerOf(org, 0)
		ends = append(ends, &ledger.Endorsement{
			Org:       p.org,
			PeerID:    p.name,
			RWSet:     rw,
			Signature: p.identity.Sign(digest[:]),
			Digest:    digest,
		})
	}
	return ends
}

func mkTx(nw *Network, id string, rw *ledger.RWSet) *ledger.Transaction {
	return &ledger.Transaction{ID: id, RWSet: rw, Endorsements: endorse(nw, rw)}
}

func mkBlock(nw *Network, num uint64, txs ...*ledger.Transaction) *ledger.Block {
	b := &ledger.Block{Number: num, Transactions: txs}
	b.Hash = b.ComputeHash()
	return b
}

func TestVSCCAcceptsConsistentEndorsements(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: ehr.ProfileKey(1), Version: ledger.Height{BlockNum: 0, TxNum: 2}}},
		Writes: []ledger.KVWrite{{Key: ehr.ProfileKey(1), Value: []byte("x")}},
	}
	code := nw.vals[0].vscc(mkTx(nw, "t", rw))
	if code != ledger.Valid {
		t.Fatalf("vscc = %v, want VALID", code)
	}
}

func TestVSCCRejectsMismatchedRWSets(t *testing.T) {
	nw := harness(t)
	rwA := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k", Version: ledger.Height{BlockNum: 1}}}}
	rwB := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k", Version: ledger.Height{BlockNum: 2}}}}
	tx := mkTx(nw, "t", rwA)
	// Second endorser saw a different version of the key (Eq. 1).
	dB := rwB.Digest()
	tx.Endorsements[1].RWSet = rwB
	tx.Endorsements[1].Signature = nw.peerOf(nw.orgs[1], 0).identity.Sign(dB[:])
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

// TestVSCCRejectsRWSetMutatedAfterSigning: VSCC verifies signatures
// against a digest recomputed from the shared rwset, so a change made
// after signing fails even though every carried digest still matches.
func TestVSCCRejectsRWSetMutatedAfterSigning(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte("x")}}}
	tx := mkTx(nw, "t", rw)
	rw.Writes[0].Value = []byte("y")
	for _, e := range tx.Endorsements {
		if e.RWSet != rw || e.Digest != tx.Endorsements[0].Digest {
			t.Fatal("endorsements should share the rwset and its carried digest")
		}
	}
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

// TestVSCCHashesDistinctRWSets: endorsements holding distinct rwset
// copies are each rehashed — equal copies pass, and a differing copy
// fails even when its carried digest claims the first one's.
func TestVSCCHashesDistinctRWSets(t *testing.T) {
	nw := harness(t)
	mk := func(v string) *ledger.RWSet {
		return &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte(v)}}}
	}
	tx := mkTx(nw, "t", mk("x"))
	second := tx.Endorsements[1]
	second.RWSet = mk("x")
	if code := nw.vals[0].vscc(tx); code != ledger.Valid {
		t.Fatalf("equal rwset copies: vscc = %v, want VALID", code)
	}
	second.RWSet = mk("z")
	d := second.RWSet.Digest()
	second.Signature = nw.peerOf(second.Org, 0).identity.Sign(d[:])
	second.Digest = tx.Endorsements[0].Digest
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("differing rwset: vscc = %v, want ENDORSEMENT_POLICY_FAILURE", code)
	}
}

func TestVSCCRejectsBadSignature(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{}
	tx := mkTx(nw, "t", rw)
	tx.Endorsements[0].Signature = []byte("forged")
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for forged signature", code)
	}
}

func TestVSCCRejectsUnsatisfiedPolicy(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{}
	tx := mkTx(nw, "t", rw)
	tx.Endorsements = tx.Endorsements[:1] // P0 needs all orgs
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for missing org", code)
	}
	tx.Endorsements = nil
	if code := nw.vals[0].vscc(tx); code != ledger.EndorsementPolicyFailure {
		t.Fatalf("vscc = %v, want failure for no endorsements", code)
	}
}

func TestMVCCInterBlockConflict(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(0)
	genesisVersion := nw.vals[0].db.Get(key).Version

	// Block 1: writer updates the key.
	writer := mkTx(nw, "w", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: genesisVersion}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("new")}},
	})
	res1 := nw.vals[0].result(mkBlock(nw, 1, writer))
	if res1.codes[0] != ledger.Valid {
		t.Fatalf("writer = %v", res1.codes[0])
	}

	// Block 2: a reader endorsed against genesis fails inter-block.
	reader := mkTx(nw, "r", &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: key, Version: genesisVersion}},
	})
	res2 := nw.vals[0].result(mkBlock(nw, 2, reader))
	if res2.codes[0] != ledger.MVCCConflictInterBlock {
		t.Fatalf("reader = %v, want inter-block conflict", res2.codes[0])
	}
}

func TestMVCCIntraBlockClassification(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(2)
	v0 := nw.vals[0].db.Get(key).Version

	// Same block: T0 writes the key; T1 endorsed against the old
	// version -> intra-block conflict (Eq. 3).
	t0 := mkTx(nw, "t0", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: v0}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("a")}},
	})
	t1 := mkTx(nw, "t1", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: key, Version: v0}},
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("b")}},
	})
	res := nw.vals[0].result(mkBlock(nw, 1, t0, t1))
	if res.codes[0] != ledger.Valid {
		t.Fatalf("t0 = %v", res.codes[0])
	}
	if res.codes[1] != ledger.MVCCConflictIntraBlock {
		t.Fatalf("t1 = %v, want intra-block conflict", res.codes[1])
	}
	// Only t0's write lands in the batch.
	if res.batch.Len() != 1 {
		t.Fatalf("batch has %d writes, want 1", res.batch.Len())
	}
}

func TestIntraClassificationIncludesFailedWriters(t *testing.T) {
	nw := harness(t)
	key := ehr.ProfileKey(3)
	v0 := nw.vals[0].db.Get(key).Version

	// T0 itself fails (stale read of another key). T1 depends on T0's
	// write attempt of `key` — still intra per Eq. 3, dependency on a
	// same-block transaction.
	other := ehr.RecordKey(3)
	t0 := mkTx(nw, "t0", &ledger.RWSet{
		Reads:  []ledger.KVRead{{Key: other, Version: ledger.Height{BlockNum: 999}}}, // stale
		Writes: []ledger.KVWrite{{Key: key, Value: []byte("a")}},
	})
	t1 := mkTx(nw, "t1", &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: key, Version: ledger.Height{BlockNum: 998}}}, // stale too
	})
	res := nw.vals[0].result(mkBlock(nw, 1, t0, t1))
	if res.codes[0] != ledger.MVCCConflictInterBlock {
		t.Fatalf("t0 = %v, want inter-block", res.codes[0])
	}
	if res.codes[1] != ledger.MVCCConflictIntraBlock {
		t.Fatalf("t1 = %v, want intra-block (dependency on attempted writer)", res.codes[1])
	}
	_ = v0
}

func TestPhantomOnInsertIntoRange(t *testing.T) {
	nw := harness(t)
	// Scan observed the genesis profiles; a new key inserted into the
	// interval must fail the re-execution (Eq. 5).
	scan := ledger.RangeQueryInfo{StartKey: "profile_", EndKey: "profile_~"}
	for _, kv := range nw.vals[0].db.GetRange("profile_", "profile_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	inserter := mkTx(nw, "w", &ledger.RWSet{
		Writes: []ledger.KVWrite{{Key: "profile_zzz", Value: []byte("{}")}},
	})
	res1 := nw.vals[0].result(mkBlock(nw, 1, inserter))
	if res1.codes[0] != ledger.Valid {
		t.Fatalf("inserter = %v", res1.codes[0])
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	res2 := nw.vals[0].result(mkBlock(nw, 2, scanner))
	if res2.codes[0] != ledger.PhantomReadConflict {
		t.Fatalf("scanner = %v, want phantom", res2.codes[0])
	}
}

func TestPhantomOnDeleteAndUpdate(t *testing.T) {
	nw := harness(t)
	scan := ledger.RangeQueryInfo{StartKey: "ehr_", EndKey: "ehr_~"}
	for _, kv := range nw.vals[0].db.GetRange("ehr_", "ehr_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	// Update one key inside the range.
	upd := mkTx(nw, "u", &ledger.RWSet{
		Writes: []ledger.KVWrite{{Key: ehr.RecordKey(5), Value: []byte("v2")}},
	})
	if res := nw.vals[0].result(mkBlock(nw, 1, upd)); res.codes[0] != ledger.Valid {
		t.Fatal("update failed")
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	if res := nw.vals[0].result(mkBlock(nw, 2, scanner)); res.codes[0] != ledger.PhantomReadConflict {
		t.Fatalf("scanner = %v, want phantom after in-range update", res.codes[0])
	}
}

func TestCleanRangeRescanIsValid(t *testing.T) {
	nw := harness(t)
	scan := ledger.RangeQueryInfo{StartKey: "profile_", EndKey: "profile_~"}
	for _, kv := range nw.vals[0].db.GetRange("profile_", "profile_~") {
		scan.Reads = append(scan.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	scanner := mkTx(nw, "s", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{scan}})
	if res := nw.vals[0].result(mkBlock(nw, 1, scanner)); res.codes[0] != ledger.Valid {
		t.Fatalf("unchanged range = %v, want VALID", res.codes[0])
	}
}

func TestUncheckedRangeNeverPhantoms(t *testing.T) {
	nw := harness(t)
	// Rich-query observation with deliberately wrong versions.
	rq := ledger.RangeQueryInfo{Unchecked: true,
		Reads: []ledger.KVRead{{Key: "profile_000", Version: ledger.Height{BlockNum: 77}}}}
	tx := mkTx(nw, "q", &ledger.RWSet{RangeQueries: []ledger.RangeQueryInfo{rq}})
	if res := nw.vals[0].result(mkBlock(nw, 1, tx)); res.codes[0] != ledger.Valid {
		t.Fatalf("unchecked range = %v, want VALID (no phantom detection)", res.codes[0])
	}
}

func TestValidatorRejectsOutOfOrderBlocks(t *testing.T) {
	nw := harness(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order validation did not panic")
		}
	}()
	nw.vals[0].result(mkBlock(nw, 5, mkTx(nw, "t", &ledger.RWSet{})))
}

func TestValidateCostGrowsWithSubPolicies(t *testing.T) {
	nw := harness(t)
	rw := &ledger.RWSet{Reads: []ledger.KVRead{{Key: "k"}}}
	tx := mkTx(nw, "t", rw)
	b := mkBlock(nw, 1, tx)
	res := nw.vals[0].result(b)
	if res.validateCost <= 0 {
		t.Fatal("zero validation cost")
	}
}

// BenchmarkValidateDVBlock validates one block of 100 DV transactions
// (votes scan all 1000 voters) endorsed against genesis state, each
// iteration on a fresh copy of the validator's replica.
func BenchmarkValidateDVBlock(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Duration = time.Second
	cfg.Chaincode = dv.New()
	cfg.Workload = dv.NewWorkload(0)
	nw, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	genesis := nw.vals[0].db
	rng := rand.New(rand.NewSource(1))
	var txs []*ledger.Transaction
	for len(txs) < 100 {
		inv := cfg.Workload.Next(rng)
		stub := chaincode.NewStub(genesis)
		if cfg.Chaincode.Invoke(stub, inv.Function, inv.Args) != nil {
			continue
		}
		txs = append(txs, mkTx(nw, fmt.Sprintf("t%d", len(txs)), stub.RWSet()))
	}
	blk := mkBlock(nw, 1, txs...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v := newValidator(nw, genesis.Clone(1))
		b.StartTimer()
		v.validate(blk)
	}
}

package fabricsharp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabrictest"
	"repro/internal/gen"
	"repro/internal/ledger"
)

func TestNoMVCCConflictsOnChain(t *testing.T) {
	cfg := fabrictest.EHRConfig(1, New())
	nw, rep := fabrictest.Run(t, cfg)
	if rep.Counts[ledger.MVCCConflictInterBlock]+rep.Counts[ledger.MVCCConflictIntraBlock] != 0 {
		t.Errorf("FabricSharp let MVCC conflicts reach the chain: %v", rep)
	}
	if rep.Counts[ledger.PhantomReadConflict] != 0 {
		t.Errorf("phantom conflicts on chain: %v", rep)
	}
	if rep.Valid == 0 {
		t.Fatal("no valid transactions")
	}
	if err := nw.Chain().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializesRMWStormsInsteadOfAborting(t *testing.T) {
	// Heavily skewed update-heavy genChain: stock Fabric fails a large
	// share to MVCC conflicts; FabricSharp serializes them (§5.4.3).
	sharpCfg := fabrictest.GenChainConfig(2, New(), gen.UpdateHeavy, 2)
	_, sharp := fabrictest.Run(t, sharpCfg)
	vCfg := fabrictest.GenChainConfig(2, nil, gen.UpdateHeavy, 2)
	_, vanilla := fabrictest.Run(t, vCfg)
	if sharp.FailurePct >= vanilla.FailurePct {
		t.Errorf("sharp failures %.2f%% >= vanilla %.2f%%", sharp.FailurePct, vanilla.FailurePct)
	}
	if sharp.FailurePct >= vanilla.FailurePct/2 {
		t.Errorf("sharp should cut failures by far more: %.2f%% vs %.2f%%",
			sharp.FailurePct, vanilla.FailurePct)
	}
	t.Logf("sharp   %v", sharp)
	t.Logf("vanilla %v", vanilla)
}

func TestFailedTxsNeverReachChain(t *testing.T) {
	cfg := fabrictest.EHRConfig(3, New())
	nw, rep := fabrictest.Run(t, cfg)
	// Chain carries only valid and endorsement-failed transactions
	// (§5.4.2: "only commits successful transactions (and endorsement
	// failures)").
	for _, b := range nw.Chain().Blocks() {
		for _, code := range b.ValidationCodes {
			if code != ledger.Valid && code != ledger.EndorsementPolicyFailure {
				t.Fatalf("code %v on chain", code)
			}
		}
	}
	if rep.Counts[ledger.AbortedInOrdering] == 0 {
		t.Log("no early aborts in this window (possible but unexpected for EHR)")
	}
}

func TestCommittedThroughputBelowVanilla(t *testing.T) {
	// A workload with early aborts: every abort is a transaction that
	// never reaches the chain, so committed throughput drops below
	// vanilla's (§5.4.2).
	sharpCfg := fabrictest.GenChainConfig(4, New(), gen.UpdateHeavy, 2)
	_, sharp := fabrictest.Run(t, sharpCfg)
	vCfg := fabrictest.GenChainConfig(4, nil, gen.UpdateHeavy, 2)
	_, vanilla := fabrictest.Run(t, vCfg)
	if sharp.Counts[ledger.AbortedInOrdering] == 0 {
		t.Fatal("expected early aborts under skewed update-heavy load")
	}
	if sharp.Committed >= vanilla.Committed {
		t.Errorf("sharp committed %d >= vanilla %d (aborts never reach the chain)",
			sharp.Committed, vanilla.Committed)
	}
}

func TestRangeQueriesRejected(t *testing.T) {
	v := New()
	tx := &ledger.Transaction{ID: "t", RWSet: &ledger.RWSet{
		RangeQueries: []ledger.RangeQueryInfo{{StartKey: "a", EndKey: "z"}},
	}}
	accept, _ := v.OnSubmit(tx)
	if accept {
		t.Fatal("checked range query accepted by FabricSharp")
	}
	rich := &ledger.Transaction{ID: "r", RWSet: &ledger.RWSet{
		RangeQueries: []ledger.RangeQueryInfo{{Unchecked: true}},
	}}
	if accept, _ := v.OnSubmit(rich); !accept {
		t.Fatal("unchecked rich query should be accepted")
	}
}

func TestSnapshotSchedulerUnit(t *testing.T) {
	v := New()
	h1 := ledger.Height{BlockNum: 1, TxNum: 0}
	// T1: blind write of k (no reads) -> schedule.
	t1 := &ledger.Transaction{ID: "t1", RWSet: &ledger.RWSet{
		Writes: []ledger.KVWrite{{Key: "k"}},
	}}
	if ok, _ := v.OnSubmit(t1); !ok {
		t.Fatal("t1 rejected")
	}
	// Commit t1 at height 1:0.
	b := &ledger.Block{Number: 1, Transactions: []*ledger.Transaction{t1}}
	v.OnBlockValidated(b, []ledger.ValidationCode{ledger.Valid})

	// T2 and T3 both read k@1:0 and write k — a storm stock Fabric
	// would fail; the interval scheduler serializes both.
	mk := func(id string) *ledger.Transaction {
		return &ledger.Transaction{ID: id, RWSet: &ledger.RWSet{
			Reads:  []ledger.KVRead{{Key: "k", Version: h1}},
			Writes: []ledger.KVWrite{{Key: "k"}},
		}}
	}
	if ok, _ := v.OnSubmit(mk("t2")); !ok {
		t.Fatal("t2 rejected")
	}
	if ok, _ := v.OnSubmit(mk("t3")); !ok {
		t.Fatal("t3 rejected: serializable storm aborted")
	}
	commits, aborts := v.Stats()
	if commits != 3 || aborts != 0 {
		t.Fatalf("stats = %d commits %d aborts", commits, aborts)
	}
}

func TestInconsistentSnapshotAborts(t *testing.T) {
	v := New()
	// Block 1 commits writers of a and b.
	wA := &ledger.Transaction{ID: "wa", RWSet: &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "a"}}}}
	wB := &ledger.Transaction{ID: "wb", RWSet: &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "b"}}}}
	v.OnSubmit(wA)
	v.OnSubmit(wB)
	b1 := &ledger.Block{Number: 1, Transactions: []*ledger.Transaction{wA, wB}}
	v.OnBlockValidated(b1, []ledger.ValidationCode{ledger.Valid, ledger.Valid})
	hA := ledger.Height{BlockNum: 1, TxNum: 0}
	hB := ledger.Height{BlockNum: 1, TxNum: 1}

	// Block 2 supersedes b.
	w2 := &ledger.Transaction{ID: "w2", RWSet: &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "b"}}}}
	v.OnSubmit(w2)
	b2 := &ledger.Block{Number: 2, Transactions: []*ledger.Transaction{w2}}
	v.OnBlockValidated(b2, []ledger.ValidationCode{ledger.Valid})
	hB2 := ledger.Height{BlockNum: 2, TxNum: 0}

	// Block 3 supersedes a.
	w3 := &ledger.Transaction{ID: "w3", RWSet: &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "a"}}}}
	v.OnSubmit(w3)
	b3 := &ledger.Block{Number: 3, Transactions: []*ledger.Transaction{w3}}
	v.OnBlockValidated(b3, []ledger.ValidationCode{ledger.Valid})
	hA3 := ledger.Height{BlockNum: 3, TxNum: 0}

	// Consistent stale snapshot: a@hA with b@hB (both current
	// together before block 2) — commits despite being stale.
	ok1 := &ledger.Transaction{ID: "ok1", RWSet: &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: "a", Version: hA}, {Key: "b", Version: hB}},
	}}
	if accept, _ := v.OnSubmit(ok1); !accept {
		t.Fatal("consistent stale snapshot rejected")
	}
	// Inconsistent snapshot: b@hB was superseded at block 2, while
	// a@hA3 only became current at block 3 — the windows never
	// overlap, so no serialization point exists.
	bad := &ledger.Transaction{ID: "bad", RWSet: &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: "b", Version: hB}, {Key: "a", Version: hA3}},
	}}
	if accept, _ := v.OnSubmit(bad); accept {
		t.Fatal("inconsistent snapshot accepted")
	}
	// New b with new a is again consistent.
	ok2 := &ledger.Transaction{ID: "ok2", RWSet: &ledger.RWSet{
		Reads: []ledger.KVRead{{Key: "b", Version: hB2}, {Key: "a", Version: hA3}},
	}}
	if accept, _ := v.OnSubmit(ok2); !accept {
		t.Fatal("fresh consistent snapshot rejected")
	}
}

// Property: adding reads to a transaction can only shrink (never grow)
// its serialization window — snapshotConsistent is monotone in the
// read set.
func TestSnapshotConsistencyMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 50; trial++ {
		v := New()
		// Build a random committed history over 6 keys.
		heights := map[string][]ledger.Height{}
		for b := uint64(1); b <= 8; b++ {
			var txs []*ledger.Transaction
			var codes []ledger.ValidationCode
			for i := 0; i < 3; i++ {
				key := string(rune('a' + rng.Intn(6)))
				txs = append(txs, &ledger.Transaction{
					ID:    fmt.Sprintf("t%d-%d", b, i),
					RWSet: &ledger.RWSet{Writes: []ledger.KVWrite{{Key: key}}},
				})
				codes = append(codes, ledger.Valid)
				heights[key] = append(heights[key], ledger.Height{BlockNum: b, TxNum: uint64(i)})
			}
			v.OnBlockValidated(&ledger.Block{Number: b, Transactions: txs}, codes)
		}
		// Random read set, evaluated incrementally.
		var rw ledger.RWSet
		prev := true
		for i := 0; i < 4; i++ {
			key := string(rune('a' + rng.Intn(6)))
			vers := heights[key]
			if len(vers) == 0 {
				continue
			}
			rw.Reads = append(rw.Reads, ledger.KVRead{
				Key: key, Version: vers[rng.Intn(len(vers))],
			})
			cur := v.snapshotConsistent(&rw)
			if cur && !prev {
				t.Fatalf("trial %d: adding a read made an inconsistent snapshot consistent", trial)
			}
			prev = cur
		}
	}
}

func TestEndorsementsConsistent(t *testing.T) {
	mk := func(v string) *ledger.RWSet {
		return &ledger.RWSet{Writes: []ledger.KVWrite{{Key: "k", Value: []byte(v)}}}
	}
	tx := func(rws ...*ledger.RWSet) *ledger.Transaction {
		out := &ledger.Transaction{RWSet: rws[0]}
		for _, rw := range rws {
			out.Endorsements = append(out.Endorsements, &ledger.Endorsement{RWSet: rw})
		}
		return out
	}
	shared := mk("x")
	cases := []struct {
		name string
		tx   *ledger.Transaction
		want bool
	}{
		{"no endorsements", &ledger.Transaction{RWSet: shared}, true},
		{"one endorsement", tx(shared), true},
		{"shared rwset", tx(shared, shared, shared), true},
		{"equal copies", tx(shared, mk("x"), shared), true},
		{"differing copy", tx(shared, shared, mk("y")), false},
	}
	for _, c := range cases {
		if got := endorsementsConsistent(c.tx); got != c.want {
			t.Errorf("%s: endorsementsConsistent = %v, want %v", c.name, got, c.want)
		}
	}
}

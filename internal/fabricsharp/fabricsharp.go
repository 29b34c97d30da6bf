// Package fabricsharp reimplements FabricSharp (Ruan et al.,
// SIGMOD'20, "A Transactional Perspective on Execute-Order-Validate
// Blockchains") as a fabric.Variant. The orderer runs an optimistic
// concurrency-control scheduler with transaction reordering: instead
// of Fabric's "reads must be current at commit" rule, a transaction
// may be serialized *into the past* — it commits as long as there was
// a single point in commit history at which all its reads were
// simultaneously current (a consistent snapshot). Stale
// read-modify-write storms on a hot key, which stock Fabric fails
// wholesale as MVCC read conflicts, all commit under this rule; only
// transactions whose reads straddle incompatible snapshots (a cycle in
// the serialization graph) are aborted, before ordering.
//
// Scheduled transactions skip the MVCC/phantom checks at validation
// (the orderer already serialized them), so no MVCC read conflicts
// ever reach the chain, and aborted transactions never reach it at
// all — which is why the study measures a lower committed throughput
// (§5.4.2). Range queries are not supported (§5.4.3): transactions
// carrying checked range reads are rejected at the orderer.
package fabricsharp

import (
	"time"

	"repro/internal/fabric"
	"repro/internal/ledger"
)

// window is the half-open interval of global sequence numbers during
// which one version of a key was the latest. to == 0 means still
// current.
type window struct {
	height   ledger.Height
	from, to uint64
}

// keyState tracks a key's recent version windows, ascending.
type keyState struct {
	windows []window
}

const historyDepth = 16

// Variant is the FabricSharp ordering extension.
type Variant struct {
	// PerOp prices one scheduler probe (per read/write key).
	PerOp time.Duration
	// Base is the fixed scheduler cost per transaction.
	Base time.Duration

	keys    map[string]*keyState
	gsn     uint64 // global sequence number, one tick per committed tx
	aborts  int
	commits int
}

// New returns the variant with calibrated scheduler costs.
func New() *Variant {
	return &Variant{
		PerOp: 2 * time.Microsecond,
		Base:  300 * time.Microsecond,
		keys:  map[string]*keyState{},
	}
}

// Name implements fabric.Variant.
func (v *Variant) Name() string { return "fabricsharp" }

// Adjust implements fabric.Variant: FabricSharp keeps stock costs.
func (v *Variant) Adjust(*fabric.Config) {}

// Stats reports scheduler decisions.
func (v *Variant) Stats() (commits, aborts int) { return v.commits, v.aborts }

// OnSubmit implements fabric.Variant: the scheduling decision.
func (v *Variant) OnSubmit(tx *ledger.Transaction) (bool, time.Duration) {
	rw := tx.RWSet
	cost := v.Base + time.Duration(len(rw.Reads)+len(rw.Writes))*v.PerOp

	// Range queries are not supported by FabricSharp (§5.4.3).
	for _, rq := range rw.RangeQueries {
		if !rq.Unchecked {
			v.aborts++
			return false, cost
		}
	}

	// Mismatching endorsements will fail VSCC anyway; forward them so
	// the failure is recorded on the chain (§5.4.2: FabricSharp
	// commits successful transactions and endorsement failures).
	if !endorsementsConsistent(tx) {
		return true, cost
	}

	if !v.snapshotConsistent(rw) {
		v.aborts++
		return false, cost
	}
	v.commits++
	return true, cost
}

// snapshotConsistent reports whether all reads were simultaneously
// current at some point of commit history: the intersection of the
// versions' validity windows is non-empty.
func (v *Variant) snapshotConsistent(rw *ledger.RWSet) bool {
	lo := uint64(0)
	hi := v.gsn + 1 // +inf, effectively: "still open"
	open := true    // whether hi is unbounded
	for _, r := range rw.Reads {
		ks := v.keys[r.Key]
		if ks == nil {
			continue // genesis or untracked key: always current
		}
		from, to, known := ks.windowOf(r.Version)
		if !known {
			continue // pruned history: no constraint (lenient)
		}
		if from > lo {
			lo = from
		}
		if to != 0 { // superseded: bounded window
			if open || to < hi {
				hi = to
				open = false
			}
		}
	}
	if open {
		return true
	}
	return lo < hi
}

// windowOf locates the validity window of a version. known is false
// when the version predates the tracked history.
func (ks *keyState) windowOf(h ledger.Height) (from, to uint64, known bool) {
	for _, w := range ks.windows {
		if w.height == h {
			return w.from, w.to, true
		}
	}
	if len(ks.windows) > 0 && h.Compare(ks.windows[0].height) < 0 {
		// Older than everything tracked: it was superseded no later
		// than when the oldest tracked version appeared.
		return 0, ks.windows[0].from, true
	}
	return 0, 0, false
}

// endorsementsConsistent reports whether every endorsement holds the
// same rwset. Endorsements sharing the first one's rwset pointer (as
// client assembly leaves matching responses) share its digest, so
// only distinct rwsets are hashed.
func endorsementsConsistent(tx *ledger.Transaction) bool {
	if len(tx.Endorsements) < 2 {
		return true
	}
	first := tx.Endorsements[0].RWSet
	for _, e := range tx.Endorsements[1:] {
		if e.RWSet != first && e.RWSet.Digest() != first.Digest() {
			return false
		}
	}
	return true
}

// OnCut implements fabric.Variant: scheduling already happened per
// transaction; blocks pass through unchanged.
func (v *Variant) OnCut(batch []*ledger.Transaction) ([]*ledger.Transaction, []*ledger.Transaction, time.Duration) {
	return batch, nil, 0
}

// SkipMVCC implements fabric.Variant: the orderer serialized
// everything; validation only checks endorsements.
func (v *Variant) SkipMVCC() bool { return true }

// EndorseSnapshotLag implements fabric.Variant. The study's observed
// endorsement-failure increase (§5.4.1) emerges in this model from the
// higher world-state update rate alone (the §5.2.2 mechanism: more
// successful commits mean more replica churn).
func (v *Variant) EndorseSnapshotLag() bool { return false }

// OnBlockValidated implements fabric.Variant: advance the version
// windows with the block's committed writes, in block order.
func (v *Variant) OnBlockValidated(b *ledger.Block, codes []ledger.ValidationCode) {
	for i, tx := range b.Transactions {
		if codes[i] != ledger.Valid {
			continue
		}
		v.gsn++
		h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
		for _, w := range tx.RWSet.Writes {
			ks := v.keys[w.Key]
			if ks == nil {
				ks = &keyState{}
				v.keys[w.Key] = ks
			}
			if n := len(ks.windows); n > 0 && ks.windows[n-1].to == 0 {
				ks.windows[n-1].to = v.gsn
			}
			ks.windows = append(ks.windows, window{height: h, from: v.gsn})
			if len(ks.windows) > historyDepth {
				ks.windows = ks.windows[len(ks.windows)-historyDepth:]
			}
		}
	}
}

package fabric

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// validator computes each block's validation outcome exactly once.
// Fabric's validation is deterministic — every peer reaches the same
// verdict — so the network computes it centrally against a dedicated
// replica and peers replay the cached result at their own commit
// times. Blocks must be validated in order; the ordering service
// triggers validation at cut time.
type validator struct {
	nw   *Network
	db   statedb.VersionedDB
	next uint64
	memo map[uint64]*valResult
}

// valResult is one block's cached outcome.
type valResult struct {
	codes        []ledger.ValidationCode
	batch        *statedb.UpdateBatch
	validateCost time.Duration // VSCC+MVCC+phantom cost, pre-jitter
}

func newValidator(nw *Network, db statedb.VersionedDB) *validator {
	return &validator{nw: nw, db: db, memo: map[uint64]*valResult{}}
}

// result returns the cached outcome for b, validating it if this is
// the first request. Out-of-order first requests are a bug.
func (v *validator) result(b *ledger.Block) *valResult {
	if r, ok := v.memo[b.Number]; ok {
		return r
	}
	if b.Number != v.next+1 && !(v.next == 0 && b.Number == 1) {
		panic(fmt.Sprintf("fabric: block %d validated out of order (next %d)", b.Number, v.next+1))
	}
	r := v.validate(b)
	v.memo[b.Number] = r
	v.next = b.Number
	return r
}

// validate runs the validation phase (§2 step 6) for every transaction
// in the block: VSCC (signatures against the endorsement policy and
// read/write-set consistency across endorsers), then MVCC version
// checks with intra/inter-block classification, then phantom
// re-execution of checked range queries. Valid writes are applied to
// the validator replica with version (blockNum, txNum).
func (v *validator) validate(b *ledger.Block) *valResult {
	res := &valResult{
		codes: make([]ledger.ValidationCode, len(b.Transactions)),
		batch: &statedb.UpdateBatch{},
	}
	// overlay maps keys written by earlier valid txs of this block
	// (the state the version check runs against); attempted
	// additionally records keys written by *any* earlier transaction
	// of the block, valid or not — Equation 3 classifies a conflict
	// as intra-block by the existence of the dependency, not by
	// whether the writer itself committed.
	overlay := map[string]ledger.Height{}
	overlayDel := map[string]bool{}
	attempted := map[string]bool{}

	nSub := v.nw.pol.SubPolicies()
	for i, tx := range b.Transactions {
		res.validateCost += costmodel.ValidateCost(
			v.nw.dbCosts, v.nw.cfg.PeerCosts, len(tx.Endorsements), nSub, tx.RWSet)

		code := v.vscc(tx)
		if code == ledger.Valid && !v.nw.variant.SkipMVCC() {
			code = v.mvcc(tx.RWSet, overlay, overlayDel, attempted)
		}
		res.codes[i] = code
		if code == ledger.Valid {
			h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
			for _, w := range tx.RWSet.Writes {
				if w.IsDelete {
					res.batch.Delete(w.Key, h)
					overlayDel[w.Key] = true
					delete(overlay, w.Key)
				} else {
					res.batch.Put(w.Key, w.Value, h)
					overlay[w.Key] = h
					delete(overlayDel, w.Key)
				}
			}
		}
		for _, w := range tx.RWSet.Writes {
			attempted[w.Key] = true
		}
	}
	if err := v.db.ApplyUpdates(res.batch, b.Number); err != nil {
		panic("fabric: validator apply: " + err.Error())
	}
	v.nw.variant.OnBlockValidated(b, res.codes)
	return res
}

// vscc checks the endorsement policy (§2 step 6): enough valid
// signatures from the right orgs, and identical read/write sets across
// all endorsers (Equation 1 — the paper's endorsement policy failure).
// Every signature is verified against a digest recomputed from the
// rwset the endorsement holds, never the digest it carries; endorsements
// that share one rwset (as assembly leaves them) share that work.
func (v *validator) vscc(tx *ledger.Transaction) ledger.ValidationCode {
	if len(tx.Endorsements) == 0 {
		return ledger.EndorsementPolicyFailure
	}
	orgs := map[string]bool{}
	first := tx.Endorsements[0].RWSet.Digest()
	hashed, d := tx.Endorsements[0].RWSet, first
	for _, e := range tx.Endorsements {
		if e.RWSet != hashed {
			hashed, d = e.RWSet, e.RWSet.Digest()
		}
		if !v.nw.msp.Verify(e.Org, e.PeerID, d[:], e.Signature) {
			return ledger.EndorsementPolicyFailure
		}
		if d != first {
			// World-state inconsistency between endorsers at
			// simulation time: read/write set mismatch.
			return ledger.EndorsementPolicyFailure
		}
		orgs[e.Org] = true
	}
	if !v.nw.pol.Satisfied(orgs) {
		return ledger.EndorsementPolicyFailure
	}
	return ledger.Valid
}

// mvcc performs the version checks of Equations 2-5 against the
// validator replica plus the block-local overlay. attempted holds
// every key written by an earlier transaction of the block (valid or
// not) and drives the intra (Eq. 3) vs inter (Eq. 4) classification.
func (v *validator) mvcc(rw *ledger.RWSet, overlay map[string]ledger.Height, overlayDel map[string]bool, attempted map[string]bool) ledger.ValidationCode {
	classify := func(key string) ledger.ValidationCode {
		if attempted[key] {
			return ledger.MVCCConflictIntraBlock
		}
		return ledger.MVCCConflictInterBlock
	}
	// Plain reads: Equation 2.
	for _, r := range rw.Reads {
		if h, ok := overlay[r.Key]; ok {
			if h != r.Version {
				return classify(r.Key)
			}
			continue
		}
		if overlayDel[r.Key] {
			return classify(r.Key)
		}
		if code := v.checkCommitted(r); code != ledger.Valid {
			return classify(r.Key)
		}
	}
	// Checked range queries: re-execute the scan (Equation 5).
	for _, rq := range rw.RangeQueries {
		if rq.Unchecked {
			continue
		}
		if !v.rangeUnchanged(rq, overlay, overlayDel) {
			return ledger.PhantomReadConflict
		}
	}
	return ledger.Valid
}

func (v *validator) checkCommitted(r ledger.KVRead) ledger.ValidationCode {
	vv := v.db.Get(r.Key)
	switch {
	case vv == nil && r.Version == ledger.ZeroHeight:
		return ledger.Valid // absent then, absent now
	case vv == nil || vv.Version != r.Version:
		return ledger.MVCCConflictInterBlock
	}
	return ledger.Valid
}

// rangeUnchanged re-executes a range scan against committed state plus
// the block overlay and compares it with the endorsement-time
// observation: any inserted, deleted or updated key fails it. overlay
// and overlayDel never share a key (validate keeps them disjoint).
func (v *validator) rangeUnchanged(rq ledger.RangeQueryInfo, overlay map[string]ledger.Height, overlayDel map[string]bool) bool {
	current := v.db.GetRange(rq.StartKey, rq.EndKey)
	// Walk the committed view with the overlay applied, matching it
	// against the observation key by key.
	i := 0
	for _, kv := range current {
		if overlayDel[kv.Key] {
			continue
		}
		ver := kv.Version
		if h, ok := overlay[kv.Key]; ok {
			ver = h
		}
		if i == len(rq.Reads) || rq.Reads[i].Key != kv.Key || rq.Reads[i].Version != ver {
			return false
		}
		i++
	}
	if i != len(rq.Reads) {
		return false
	}
	// An overlay key inside the interval that committed state lacks is
	// an insert.
	for key := range overlay {
		if key < rq.StartKey || (rq.EndKey != "" && key >= rq.EndKey) {
			continue
		}
		j := sort.Search(len(current), func(j int) bool { return current[j].Key >= key })
		if j == len(current) || current[j].Key != key {
			return false
		}
	}
	return true
}

package main

import (
	"bytes"
	"fmt"

	"repro/internal/chaincode"
	"repro/internal/conflictgraph"
	"repro/internal/fabcrypto"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/policy"
	"repro/internal/statedb"
)

// replay feeds a finished run's committed blocks through the public
// functions of ledger, fabcrypto, policy, statedb and conflictgraph,
// timing each call as a span under a "replay" root. fresh is a new
// config of the same workload and seed: its chaincode rebuilds the
// genesis state. The replay checks that every recomputed block hash
// matches the chain, so the timed data is the data the run produced,
// and that the replayed state of channel 0 equals the metrics peer's.
func replay(t *tracer, fresh fabric.Config, nw *fabric.Network) error {
	root := t.begin("replay")
	defer t.end(root)

	genesis := statedb.New(fresh.DBKind, fresh.Seed)
	stub := chaincode.NewStub(genesis)
	if err := fresh.Chaincode.Init(stub); err != nil {
		return fmt.Errorf("replay: chaincode init: %w", err)
	}
	batch := &statedb.UpdateBatch{}
	for i, w := range stub.RWSet().Writes {
		h := ledger.Height{BlockNum: 0, TxNum: uint64(i)}
		if w.IsDelete {
			batch.Delete(w.Key, h)
		} else {
			batch.Put(w.Key, w.Value, h)
		}
	}
	if err := genesis.ApplyUpdates(batch, 0); err != nil {
		return fmt.Errorf("replay: genesis: %w", err)
	}

	orgs := make([]string, fresh.Orgs)
	for i := range orgs {
		orgs[i] = fabcrypto.OrgName(i)
	}
	r := &replayer{
		t:        t,
		pol:      policy.Build(fresh.Policy, orgs),
		msp:      fabcrypto.NewMSP(fmt.Sprintf("perfbench-%d", fresh.Seed)),
		hasRange: recordsRange(nw.Chains()),
	}
	for ch, chain := range nw.Chains() {
		var db statedb.VersionedDB
		t.timed("statedb.clone", func() { db = genesis.Clone(fresh.Seed + int64(ch)) })
		for _, b := range chain.Blocks()[1:] {
			if err := r.block(db, b); err != nil {
				return fmt.Errorf("replay: channel %d: %w", ch, err)
			}
		}
		var err error
		t.timed("ledger.verify", func() { err = chain.Verify() })
		if err != nil {
			return fmt.Errorf("replay: channel %d: %w", ch, err)
		}
		if ch == 0 {
			if err := sameState(db, nw.Peers()[0].DB()); err != nil {
				return fmt.Errorf("replay: channel 0: %w", err)
			}
		}
	}
	return nil
}

type replayer struct {
	t        *tracer
	pol      *policy.Policy
	msp      *fabcrypto.MSP
	rotation int
	// hasRange reports whether the run recorded any checked range
	// query. When it did not, each plain read is also scanned as a
	// one-key range, so GetRange is timed on every workload.
	hasRange bool
}

// block replays one committed block against db, the channel's state
// as of the previous block, and then applies the block's valid writes.
func (r *replayer) block(db statedb.VersionedDB, b *ledger.Block) error {
	t := r.t
	var hash [32]byte
	t.timed("ledger.block_hash", func() { hash = b.ComputeHash() })
	if hash != b.Hash {
		return fmt.Errorf("block %d: recomputed hash differs from the chain's", b.Number)
	}
	rwsets := make([]*ledger.RWSet, len(b.Transactions))
	for i, tx := range b.Transactions {
		rwsets[i] = tx.RWSet
		t.timed("ledger.digest", func() { tx.RWSet.Digest() })
		r.rotation++
		t.timed("policy.required_endorsers", func() { r.pol.RequiredEndorsers(r.rotation) })
		for _, e := range tx.Endorsements {
			digest := e.RWSet.Digest()
			id := r.msp.Register(e.Org, e.PeerID)
			var sig []byte
			t.timed("fabcrypto.sign", func() { sig = id.Sign(digest[:]) })
			var ok bool
			t.timed("fabcrypto.verify", func() { ok = r.msp.Verify(e.Org, e.PeerID, digest[:], sig) })
			if !ok {
				return fmt.Errorf("block %d: %s signature by %s/%s does not verify", b.Number, tx.ID, e.Org, e.PeerID)
			}
		}
		for _, rd := range tx.RWSet.Reads {
			t.timed("statedb.get", func() { db.Get(rd.Key) })
			if !r.hasRange {
				t.timed("statedb.range", func() { db.GetRange(rd.Key, rd.Key+"\x00") })
			}
		}
		for _, rq := range tx.RWSet.RangeQueries {
			if !rq.Unchecked {
				t.timed("statedb.range", func() { db.GetRange(rq.StartKey, rq.EndKey) })
			}
		}
	}

	var graph conflictgraph.BuildResult
	t.timed("conflictgraph.build", func() { graph = conflictgraph.Build(rwsets) })
	t.timed("conflictgraph.break", func() { graph.Graph.BreakCycles() })

	batch := &statedb.UpdateBatch{}
	for i, tx := range b.Transactions {
		if b.ValidationCodes[i] != ledger.Valid {
			continue
		}
		h := ledger.Height{BlockNum: b.Number, TxNum: uint64(i)}
		for _, w := range tx.RWSet.Writes {
			if w.IsDelete {
				batch.Delete(w.Key, h)
			} else {
				batch.Put(w.Key, w.Value, h)
			}
		}
	}
	var err error
	t.timed("statedb.apply", func() { err = db.ApplyUpdates(batch, b.Number) })
	return err
}

// recordsRange reports whether any committed transaction carries a
// checked range query.
func recordsRange(chains []*ledger.Chain) bool {
	for _, chain := range chains {
		for _, b := range chain.Blocks() {
			for _, tx := range b.Transactions {
				for _, rq := range tx.RWSet.RangeQueries {
					if !rq.Unchecked {
						return true
					}
				}
			}
		}
	}
	return false
}

// sameState compares two state databases key by key.
func sameState(got, want statedb.VersionedDB) error {
	g, w := got.GetRange("", ""), want.GetRange("", "")
	if len(g) != len(w) {
		return fmt.Errorf("replayed state has %d keys, peer has %d", len(g), len(w))
	}
	for i := range g {
		if g[i].Key != w[i].Key || g[i].Version != w[i].Version || !bytes.Equal(g[i].Value, w[i].Value) {
			return fmt.Errorf("replayed state differs from the peer's at key %q", w[i].Key)
		}
	}
	return nil
}

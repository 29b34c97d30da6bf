package fabric

import (
	"time"

	"repro/internal/chaincode"
	"repro/internal/costmodel"
	"repro/internal/fabcrypto"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Peer is one Fabric peer: an endorser that simulates transactions on
// its own world-state replica and a committer that validates delivered
// blocks and applies them. Replicas advance independently — the
// transient inconsistency between them during the commit window is the
// root cause of endorsement policy failures (§3.2.1).
type Peer struct {
	nw       *Network
	org      string
	name     string
	identity *fabcrypto.Identity
	// dbs holds one world-state replica per channel the peer has
	// joined (every peer joins every channel), indexed by channel.
	dbs []statedb.VersionedDB

	// busyUntil serializes the committer: blocks are validated and
	// applied one at a time, in delivery order.
	busyUntil sim.Time

	// endorserSlots holds the completion times of the peer's
	// endorsement workers; proposals queue for the earliest slot.
	endorserSlots []sim.Time

	// lagBatch delays replica application by one block when the
	// variant endorses against block snapshots (FabricSharp).
	lagBatch  *statedb.UpdateBatch
	lagHeight uint64

	// committedBlocks counts applied blocks (diagnostics).
	committedBlocks int

	// Lifecycle state (see lifecycle.go; always NodeUp without
	// Config.Faults). epoch increments at every crash: closures
	// scheduled before it — queued endorsements, their responses,
	// in-flight commits — capture the epoch they were created under
	// and die silently when it is stale. inflight tracks blocks
	// delivered but not yet committed; backlog accumulates blocks
	// delivered while crashed (the missed ledger suffix the restart
	// replays). catchup counts replayed blocks still uncommitted
	// during NodeRestarting and recoverStart stamps the restart for
	// the recovery-latency metric.
	state        NodeState
	epoch        uint64
	inflight     []*ledger.Block
	backlog      []*ledger.Block
	catchup      int
	recoverStart sim.Time
}

func newPeer(nw *Network, org, name string, dbs []statedb.VersionedDB) *Peer {
	workers := nw.cfg.PeerCosts.EndorserWorkers
	if workers < 1 {
		workers = 1
	}
	return &Peer{
		nw:            nw,
		org:           org,
		name:          name,
		identity:      nw.msp.Register(org, name),
		dbs:           dbs,
		endorserSlots: make([]sim.Time, workers),
	}
}

// Org returns the peer's organization.
func (p *Peer) Org() string { return p.org }

// Name returns the peer's node name.
func (p *Peer) Name() string { return p.name }

// DB exposes channel 0's replica (tests).
func (p *Peer) DB() statedb.VersionedDB { return p.dbs[0] }

// CommittedBlocks reports how many blocks this replica has applied.
func (p *Peer) CommittedBlocks() int { return p.committedBlocks }

// Endorse simulates the invocation on the local replica of the given
// channel (§2 step 2) and, after the endorsement service time, sends
// the signed read/write set back through respond. Proposals queue for
// one of the peer's endorsement workers — the pool is shared across
// channels, like a real peer's endorser runtime: expensive
// simulations (CouchDB range scans) saturate the pool and the queue
// grows — the §5.1.2 collapse.
func (p *Peer) Endorse(inv workload.Invocation, channel int, respond func(*ledger.Endorsement, error)) {
	if p.state == NodeCrashed {
		// The process is gone; the proposal is silently lost (the
		// client's endorsement deadline is the recovery path).
		return
	}
	// The proposal starts executing when a worker frees up; the
	// snapshot it reads is taken at that point.
	slot := 0
	for i, t := range p.endorserSlots {
		if t < p.endorserSlots[slot] {
			slot = i
		}
	}
	start := p.endorserSlots[slot]
	if now := p.nw.eng.Now(); now > start {
		start = now
	}
	epoch := p.epoch
	run := func() {
		if p.epoch != epoch {
			return // the peer crashed; queued proposals died with it
		}
		stub := chaincode.NewStub(p.dbs[channel])
		err := p.nw.cfg.Chaincode.Invoke(stub, inv.Function, inv.Args)
		var end *ledger.Endorsement
		cost := p.nw.cfg.PeerCosts.EndorseBase
		if err == nil {
			rw := stub.RWSet()
			digest := rw.Digest()
			end = &ledger.Endorsement{
				Org:       p.org,
				PeerID:    p.name,
				RWSet:     rw,
				Signature: p.identity.Sign(digest[:]),
				Digest:    digest,
			}
			cost = costmodel.EndorseCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, stub.Trace())
		}
		cost = p.nw.eng.Jittered(cost, p.nw.cfg.PeerCosts.Jitter)
		p.endorserSlots[slot] = p.nw.eng.Now() + sim.Time(cost)
		p.nw.eng.After(cost, func() {
			if p.epoch != epoch {
				return // crashed mid-endorsement; the response is lost
			}
			respond(end, err)
		})
	}
	if start <= p.nw.eng.Now() {
		p.endorserSlots[slot] = p.nw.eng.Now() // claimed; updated in run
		run()
		return
	}
	p.endorserSlots[slot] = start // reserve until the worker frees up
	p.nw.eng.At(start, run)
}

// DeliverBlock enqueues a block from the ordering service. The
// committer is a serial server: validation+commit of block N must
// finish before N+1 starts. The validation outcome itself is computed
// once network-wide (it is deterministic); each peer pays its own
// virtual service time and applies the batch at its own commit time.
func (p *Peer) DeliverBlock(b *ledger.Block) {
	if p.state == NodeCrashed {
		// The deliver stream is reliable (netem.SendOrdered), but the
		// process is not there to commit: the block queues as the
		// missed ledger suffix and the restart replays it.
		p.backlog = append(p.backlog, b)
		return
	}
	res := p.nw.vals[b.Channel].result(b)
	// Jitter applies to the fixed per-block part only: per-transaction
	// work averages out across a block (CLT), so the commit-time skew
	// between replicas — the driver of endorsement policy failures —
	// does not scale with block size (the paper's Fig 9 flatness).
	fixed := costmodel.CommitCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, 0)
	variable := res.validateCost +
		costmodel.CommitCost(p.nw.dbCosts, p.nw.cfg.PeerCosts, res.batch.Len()) - fixed
	service := p.nw.eng.Jittered(fixed, p.nw.cfg.PeerCosts.Jitter) +
		p.nw.eng.Jittered(variable, p.nw.cfg.PeerCosts.VarJitter)

	start := p.busyUntil
	if now := p.nw.eng.Now(); now > start {
		start = now
	}
	done := start + sim.Time(service)
	p.busyUntil = done
	p.inflight = append(p.inflight, b)
	epoch := p.epoch
	p.nw.eng.At(done, func() {
		if p.epoch != epoch {
			return // crashed mid-commit; the block is replayed on restart
		}
		p.inflight = p.inflight[1:]
		p.commit(b, res)
	})
}

// commit applies the block's update batch to the replica and, on the
// metrics peer, appends the canonical block and records metrics.
func (p *Peer) commit(b *ledger.Block, res *valResult) {
	if p.nw.variant.EndorseSnapshotLag() {
		// FabricSharp parallelizes execution and validation with
		// block snapshots: endorsement sees the state as of the
		// previous block boundary (§5.4.1), so the replica applies
		// one block late.
		// Snapshot-lag variants are single-channel only (enforced by
		// Config.Validate), so the scalar lag state always refers to
		// channel 0.
		if p.lagBatch != nil {
			p.dbs[b.Channel].ApplyUpdates(p.lagBatch, p.lagHeight)
		}
		p.lagBatch, p.lagHeight = res.batch, b.Number
	} else {
		p.dbs[b.Channel].ApplyUpdates(res.batch, b.Number)
	}
	p.committedBlocks++
	if p.state == NodeRestarting {
		p.catchup--
		if p.catchup == 0 {
			p.state = NodeUp
			p.nw.col.RecordRecovery(time.Duration(p.nw.eng.Now() - p.recoverStart))
		}
	}

	if p != p.nw.metricsPeer() {
		return
	}
	now := p.nw.eng.Now()
	canonical := &ledger.Block{
		Number:          b.Number,
		PrevHash:        b.PrevHash,
		Hash:            b.Hash,
		Transactions:    b.Transactions,
		Channel:         b.Channel,
		CutTime:         b.CutTime,
		CongestionHint:  b.CongestionHint,
		ValidationCodes: res.codes,
		CommitTime:      now,
	}
	if err := p.nw.chains[b.Channel].Append(canonical); err != nil {
		panic("fabric: canonical chain append: " + err.Error())
	}
	p.nw.col.RecordBlock()
	for i, tx := range b.Transactions {
		p.nw.col.RecordTx(res.codes[i], tx.SubmitTime, now)
		// Commit-event delivery for retry/closed-loop clients: the
		// metrics peer doubles as the event hub every client
		// subscribes to. The block's congestion hint rides along, like
		// metadata in a Fabric block event.
		p.nw.deliverOutcome(p.name, tx, res.codes[i], b.CongestionHint, b.Channel)
		if p.nw.cfg.StripAfterCommit {
			stripTx(tx)
		}
	}
}

// NodeID implements lifecycleNode.
func (p *Peer) NodeID() string { return p.name }

// State reports the peer's lifecycle state.
func (p *Peer) State() NodeState { return p.state }

// crash implements lifecycleNode: the peer process dies. Queued
// endorsements, in-flight responses and scheduled commits all carry
// the pre-crash epoch and die silently; blocks that were delivered
// but not yet committed become the start of the missed ledger suffix
// (the deliver stream keeps appending to it while the peer is down).
func (p *Peer) crash() {
	p.state = NodeCrashed
	p.epoch++
	p.backlog = p.inflight
	p.inflight = nil
}

// restart implements lifecycleNode: the process comes back with its
// replica intact (state databases are durable) and replays the block
// suffix it missed through the normal commit path — validation
// results are memoized network-wide, so the replay is deterministic.
// With missed blocks the peer passes through NodeRestarting until the
// replay commits; with none it is NodeUp immediately.
func (p *Peer) restart() {
	now := p.nw.eng.Now()
	p.busyUntil = now
	for i := range p.endorserSlots {
		p.endorserSlots[i] = now
	}
	backlog := p.backlog
	p.backlog = nil
	if len(backlog) == 0 {
		p.state = NodeUp
		return
	}
	p.state = NodeRestarting
	p.recoverStart = now
	p.catchup = len(backlog)
	for _, b := range backlog {
		p.DeliverBlock(b)
	}
}

// stripTx frees heavy payloads once a transaction is measured: the
// endorsement list and range-query observations can hold thousands of
// reads (DV scans all 1000 voters per vote).
func stripTx(tx *ledger.Transaction) {
	tx.Endorsements = nil
	if tx.RWSet == nil {
		return
	}
	for i := range tx.RWSet.RangeQueries {
		tx.RWSet.RangeQueries[i].Reads = nil
	}
}

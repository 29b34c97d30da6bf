package fabric

import (
	"fmt"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/workload"
)

// clientCore is the client-behavior machinery shared by every
// ClientDriver implementation: the exact per-client Client and the
// Cohort that drives many statistically identical clients from one
// state object. It owns the submission pipeline (draw invocation,
// collect endorsements, assemble, order), the pending-transaction
// table, and the whole coordination stack — retry policy, budget
// bucket, backpressure pacing, gossip estimate. The only thing a
// driver adds on top is its arrival process (start).
//
// The core drives `members` simulated clients starting at global
// client index firstID. Per-member state is deliberately tiny — one
// endorser-rotation counter — so a driver's memory cost is amortized
// across its members; everything heavy (pending map, policy, bucket,
// gossip window) is shared. With members == 1 the behaviour is the
// historical per-client simulation, bit for bit.
type clientCore struct {
	nw *Network
	// index is the driver's position in the network's driver list
	// (gossip peer sampling); firstID is the global index of the first
	// simulated client this driver speaks for.
	index   int
	firstID int
	members int
	name    string

	// rotation holds one endorser/orderer rotation counter per driven
	// member — the only per-member state, a few bytes per simulated
	// client.
	rotation []int

	// pending maps an in-flight attempt's transaction id (one per leg
	// for cross-channel transactions) to its logical transaction, for
	// commit-event correlation. Only populated when the network tracks
	// outcomes.
	pending map[string]*pendingTx

	// policy is this driver's retry policy instance. Stateful policies
	// (AdaptivePolicy) get one instance per driver — a cohort's members
	// share one controller, the mean-field approximation — while
	// stateless ones are shared with the network.
	policy RetryPolicy
	// observer/reporter are the optional adaptive facets of policy,
	// resolved once at construction. classObs is the split-mode variant
	// of observer: outcomes arrive classified per SignalClass instead
	// of as a scalar failed bit. When the split is on and the policy
	// supports it, classObs supersedes observer.
	observer outcomeObserver
	classObs classObserver
	reporter backoffReporter
	// bucket is the retry budget (nil = unlimited). A cohort shares
	// one bucket across its members with refill rate and burst scaled
	// by member count, so the aggregate retry allowance matches the
	// exact simulation.
	bucket *tokenBucket

	// pacer is the resolved backpressure config when the run both
	// enables the orderer's congestion signal and tracks outcomes (the
	// hint arrives on outcome events); nil otherwise. hints holds the
	// latest congestion hint observed per channel on this driver's
	// event stream — each channel's ordering service computes its own —
	// and hintObs is the optional hint-consuming facet of the policy.
	pacer   *Backpressure
	hints   []float64
	hintObs hintObserver

	// gossip is this driver's view of the client-to-client congestion
	// signal (nil without Config.Gossip or outcome tracking), and
	// hintSrc selects which producer — orderer hint, gossip estimate,
	// or their max — feeds pacing and the hint-consuming policies. A
	// cohort is one gossip participant: its members pool their outcome
	// window and estimate.
	gossip  *gossipState
	hintSrc HintSource

	// split is the resolved split-signal mode (nil = scalar): outcome
	// classification per SignalClass, a two-component gossip estimate,
	// and conflict→backoff / congestion→pacing signal routing.
	split *SplitSignal

	// resubmissions counts retry submissions issued (diagnostics).
	resubmissions int
}

// pendingTx is one logical transaction tracked across resubmissions:
// the client retries the same invocation until it commits or the
// policy gives up. A cross-channel transaction (Config.CrossChannel)
// has two legs — one proposal per channel — and each attempt resolves
// only when both legs have reported; any failed leg fails the attempt.
type pendingTx struct {
	inv         workload.Invocation
	attempts    int      // submissions so far (1 = first attempt)
	firstSubmit sim.Time // first submission, end-to-end latency start
	lastSubmit  sim.Time // current attempt's submission (congestion evidence)
	member      int      // driven member this job belongs to

	// channels[:legs] are the channels this transaction spans (legs is
	// 1, or 2 for a cross-channel transaction). legsLeft counts the
	// current attempt's unresolved legs; legFailed/failCode latch the
	// first leg failure so the whole attempt fails with it.
	channels  [2]int
	legs      int
	legsLeft  int
	legFailed bool
	failCode  ledger.ValidationCode
}

// init wires the shared machinery; each driver type calls it from its
// constructor.
func (c *clientCore) init(nw *Network, index, firstID, members int, name string) {
	c.nw = nw
	c.index = index
	c.firstID = firstID
	c.members = members
	c.name = name
	c.rotation = make([]int, members)
	c.pending = map[string]*pendingTx{}
	c.hints = make([]float64, nw.channels)
	c.policy = nw.retry
	if pc, ok := c.policy.(perClientPolicy); ok {
		c.policy = pc.perClient()
	}
	// The observer/trajectory facets may sit behind wrappers
	// (GiveUpAfter): unwrap to find them.
	base := c.policy
	for {
		u, ok := base.(interface{ unwrap() RetryPolicy })
		if !ok {
			break
		}
		base = u.unwrap()
	}
	c.observer, _ = base.(outcomeObserver)
	c.reporter, _ = base.(backoffReporter)
	c.split = nw.split
	if c.split != nil {
		if sa, ok := base.(splitAware); ok {
			sa.enableSplit()
			c.classObs, _ = base.(classObserver)
		}
	}
	if nw.tracking && nw.cfg.RetryBudget != nil {
		b := *nw.cfg.RetryBudget
		if members > 1 {
			// One bucket serves the whole cohort: scale the refill
			// stream and capacity so the aggregate retry allowance
			// equals members independent per-client buckets.
			b = b.withDefaults()
			b.RefillPerSec *= float64(members)
			b.Burst *= float64(members)
			if b.MaxRefillPerSec > 0 {
				b.MaxRefillPerSec *= float64(members)
			}
		}
		c.bucket = newTokenBucket(b)
	}
	c.hintSrc = nw.hintSrc
	if nw.tracking && nw.bp != nil {
		c.pacer = nw.bp
	}
	if nw.gossip != nil {
		c.gossip = newGossipState(*nw.gossip, c.split != nil)
	}
	if c.pacer != nil || c.gossip != nil {
		c.hintObs, _ = base.(hintObserver)
	}
}

// Name returns the driver's network node name.
func (c *clientCore) Name() string { return c.name }

// Members reports how many simulated clients this driver drives.
func (c *clientCore) Members() int { return c.members }

// Resubmissions reports how many retry submissions this driver issued.
func (c *clientCore) Resubmissions() int { return c.resubmissions }

// Pending reports how many of this driver's attempts are still
// awaiting an outcome event (diagnostics; in-flight work at the end
// of a run).
func (c *clientCore) Pending() int { return len(c.pending) }

// openWindow submits the initial closed-loop window for every driven
// member, in member order — exactly the submission order the exact
// simulation produces when its clients start in sequence.
func (c *clientCore) openWindow() {
	window := c.nw.cfg.InFlightPerClient
	if window < 1 {
		window = 1
	}
	for m := 0; m < c.members; m++ {
		for i := 0; i < window; i++ {
			c.submitJob(m)
		}
	}
}

// submitJob draws the next invocation from the workload, routes it to
// its home channel, decides whether it spans a second channel
// (Config.CrossChannel), and submits its first attempt on behalf of
// the given member.
func (c *clientCore) submitJob(member int) {
	j := &pendingTx{
		inv:         c.nw.cfg.Workload.Next(c.nw.eng.Rand()),
		firstSubmit: c.nw.eng.Now(),
		member:      member,
		legs:        1,
	}
	j.channels[0] = c.nw.channelOf(j.inv)
	if n := c.nw.channels; n > 1 && c.nw.cfg.CrossChannel > 0 &&
		c.nw.eng.Rand().Float64() < c.nw.cfg.CrossChannel {
		// Second leg on a uniformly drawn other channel.
		second := c.nw.eng.Rand().Intn(n - 1)
		if second >= j.channels[0] {
			second++
		}
		j.channels[1] = second
		j.legs = 2
	}
	c.submitAttempt(j)
}

// submitAttempt runs one submission of a logical transaction through
// the execution phase, one leg per spanned channel. Resubmissions
// replay the same invocation under fresh transaction ids (a retried
// Fabric transaction is a new proposal: new endorsements, new read set
// against current state).
func (c *clientCore) submitAttempt(j *pendingTx) {
	j.attempts++
	j.lastSubmit = c.nw.eng.Now()
	j.legsLeft = j.legs
	j.legFailed = false
	for l := 0; l < j.legs; l++ {
		c.submitLeg(j, j.channels[l])
	}
}

// submitLeg submits one channel's proposal of the current attempt:
// collect endorsements from a policy-satisfying set of peers against
// the leg channel's replicas, then assemble and order on that channel.
func (c *clientCore) submitLeg(j *pendingTx, channel int) {
	inv := j.inv
	tx := &ledger.Transaction{
		ID:         c.nw.nextTxID(c.firstID + j.member),
		ClientID:   c.name,
		Chaincode:  inv.Chaincode,
		Function:   inv.Function,
		SubmitTime: c.nw.eng.Now(),
	}
	if c.nw.tracking {
		c.pending[tx.ID] = j
	}
	c.rotation[j.member]++
	rot := c.rotation[j.member]
	endorserOrgs := c.nw.pol.RequiredEndorsers(rot)
	peerInOrg := rot % c.nw.cfg.PeersPerOrg

	want := len(endorserOrgs)
	var got []*ledger.Endorsement
	// done latches once the endorsement phase resolved — a proposal
	// error, a complete endorsement set, or the client's endorsement
	// deadline — so late responses and a late deadline are no-ops.
	done := false
	respond := func(e *ledger.Endorsement, err error) {
		if done {
			return
		}
		if err != nil {
			// Proposal error (chaincode rejected the call). Counted
			// as an early abort: the attempt is dropped.
			done = true
			c.nw.col.RecordAbort(tx.SubmitTime, c.nw.eng.Now())
			c.legDone(j, tx.ID, ledger.AbortedInOrdering)
			return
		}
		got = append(got, e)
		if len(got) == want {
			done = true
			c.assemble(j, tx, channel, got)
		}
	}

	for _, org := range endorserOrgs {
		peer := c.nw.peerOf(org, peerInOrg)
		c.nw.net.Send(c.name, peer.name, func() {
			peer.Endorse(inv, channel, func(e *ledger.Endorsement, err error) {
				c.nw.net.Send(peer.name, c.name, func() { respond(e, err) })
			})
		})
	}

	// Client-side endorsement deadline (Config.Faults): if a crashed
	// or partitioned endorser keeps the set incomplete past the
	// timeout, the attempt fails as CLIENT_TIMEOUT and feeds the
	// normal retry path. Inert without fault injection or outcome
	// tracking.
	if ft := c.nw.faults; ft != nil && ft.EndorseTimeout > 0 && c.nw.tracking {
		c.nw.eng.After(ft.EndorseTimeout, func() {
			if done {
				return
			}
			done = true
			c.nw.col.RecordEndorseTimeout()
			c.legDone(j, tx.ID, ledger.ClientTimeout)
		})
	}
}

// assemble builds the envelope from the collected endorsements and
// sends it to an orderer node of the leg's channel (§2 step 3).
func (c *clientCore) assemble(j *pendingTx, tx *ledger.Transaction, channel int, ends []*ledger.Endorsement) {
	tx.EndorseTime = c.nw.eng.Now()
	tx.Endorsements = ends
	tx.RWSet = ends[0].RWSet
	// Deduplicate identical rwsets so a transaction holds one copy
	// (DV endorsements carry 1000-key range observations). The
	// endorsers' signed digests identify them; VSCC rehashes anyway.
	consistent := true
	for _, e := range ends[1:] {
		if e.Digest == ends[0].Digest {
			e.RWSet = ends[0].RWSet
		} else {
			consistent = false
		}
	}
	if c.nw.cfg.ClientCheck && !consistent {
		// Optional early check (§2 step 3): drop mismatching
		// responses before ordering to save overhead. The failure is
		// still a failure.
		c.nw.col.RecordAbort(tx.SubmitTime, c.nw.eng.Now())
		c.legDone(j, tx.ID, ledger.AbortedInOrdering)
		return
	}
	if c.nw.cfg.SkipReadOnlySubmission && consistent && len(tx.RWSet.Writes) == 0 {
		// Recommendation #4 (§6.1): the query result is already in
		// hand after the execution phase; nothing needs ordering.
		c.nw.col.RecordServedRead(tx.SubmitTime, c.nw.eng.Now())
		c.legDone(j, tx.ID, ledger.Valid)
		return
	}
	os := c.nw.orderers[channel]
	tx.SnapshotHeight = c.nw.chains[channel].Height()
	orderer := os.NodeName(c.rotation[j.member])
	c.nw.net.Send(c.name, orderer, func() { os.Submit(tx) })

	// Client-side submission deadline (Config.Faults): if no commit or
	// abort event arrives in time — the envelope died with a crashed
	// orderer, or the event path is cut — the attempt fails as
	// CLIENT_TIMEOUT and is retried. The pending-table check makes a
	// late deadline a no-op; a transaction that commits after its
	// client gave up is counted orphaned in onOutcome.
	if ft := c.nw.faults; ft != nil && ft.SubmitTimeout > 0 && c.nw.tracking {
		c.nw.eng.After(ft.SubmitTimeout, func() {
			if cur, ok := c.pending[tx.ID]; ok && cur == j {
				c.nw.col.RecordSubmitTimeout()
				c.legDone(j, tx.ID, ledger.ClientTimeout)
			}
		})
	}
}

// onOutcome handles a commit (or early-abort) event for one of this
// driver's pending attempts. Events for unknown transaction ids still
// refresh the channel's congestion hint — the orderer's signal is
// fresh regardless of which attempt carried it — but are otherwise
// ignored (the attempt was already resolved locally).
func (c *clientCore) onOutcome(txID string, code ledger.ValidationCode, hint float64, channel int) {
	if c.pacer != nil && c.hintSrc.usesOrderer() {
		c.hints[channel] = hint
		// In split mode the orderer's hint is pure congestion evidence:
		// it feeds pacing via currentSignals but must not slide the
		// hint-consuming policies' backoff, which the conflict estimate
		// drives instead.
		if c.hintObs != nil && c.split == nil {
			c.hintObs.observeHint(hint)
		}
	}
	j, ok := c.pending[txID]
	if !ok {
		// With fault injection, a Valid outcome for an attempt the
		// client already timed out on means the transaction committed
		// after its submitter gave up (and possibly resubmitted): an
		// orphan — duplicate effect risk at the application layer.
		if c.nw.faults != nil && code == ledger.Valid {
			c.nw.col.RecordOrphan()
		}
		return
	}
	c.legDone(j, txID, code)
}

// legDone resolves one leg of a logical transaction's current attempt.
// Single-channel transactions have one leg, so the attempt resolves
// immediately; a cross-channel attempt waits for both legs and fails
// with the first leg failure (both commits are required). It is a
// no-op unless the run tracks outcomes.
func (c *clientCore) legDone(j *pendingTx, txID string, code ledger.ValidationCode) {
	if !c.nw.tracking {
		return
	}
	delete(c.pending, txID)
	if code != ledger.Valid && !j.legFailed {
		j.legFailed = true
		j.failCode = code
	}
	j.legsLeft--
	if j.legsLeft > 0 {
		return
	}
	if j.legFailed {
		c.attemptFailed(j, j.failCode)
		return
	}
	c.attemptResolved(j)
}

// attemptResolved finishes a logical transaction successfully: every
// leg of the attempt committed as valid (or was served directly as a
// read).
func (c *clientCore) attemptResolved(j *pendingTx) {
	c.nw.col.RecordAttempt(j.attempts, ledger.Valid)
	c.observe(ledger.Valid)
	c.gossipObserve(ledger.Valid, j)
	c.nw.col.RecordJob(j.attempts, true, j.firstSubmit, c.nw.eng.Now())
	c.jobDone(j.member)
}

// attemptFailed records a failed attempt and either schedules a
// resubmission per the retry policy or abandons the transaction. The
// orderer's backpressure pacer stretches the policy's backoff by
// hint×Gain before the budget sees it. A configured retry budget
// gates every resubmission the policy asks for: an empty bucket
// defers the retry until a token accrues, or — with DropOnEmpty —
// abandons the transaction as a budget exhaustion. Pacing time is
// recorded only to the extent the pause actually moved the schedule:
// a dropped retry never waited, and a token wait that covers the
// paced backoff (in part or in full) absorbs that much of the pause.
func (c *clientCore) attemptFailed(j *pendingTx, code ledger.ValidationCode) {
	c.nw.col.RecordAttempt(j.attempts, code)
	c.observe(code)
	c.gossipObserve(code, j)
	// The gossip estimate is pulled, not pushed: consult the signal once
	// per failure, refresh the policy's view right before it decides
	// the backoff (so the delay reflects the fleet's current alarm,
	// decay included), and reuse the same value for the pacer below.
	// In split mode the consultation yields two values routed apart:
	// the conflict estimate slides the hint-consuming policy's backoff,
	// the congestion estimate (orderer hints included) drives the pacer.
	gossipFeeds := c.hintObs != nil && c.gossip != nil && c.hintSrc.usesGossip()
	var hint float64
	if c.split != nil {
		if gossipFeeds || c.pacer != nil {
			conflict, congestion := c.currentSignals()
			if gossipFeeds {
				c.hintObs.observeHint(conflict)
			}
			hint = congestion
		}
	} else {
		if gossipFeeds || c.pacer != nil {
			hint = c.currentHint()
		}
		if gossipFeeds {
			c.hintObs.observeHint(hint)
		}
	}
	if delay, ok := c.policy.NextDelay(j.attempts, c.nw.eng.Rand()); ok {
		var pause time.Duration
		if c.pacer != nil {
			pause = c.pacer.pause(hint)
		}
		delay += pause
		if c.bucket != nil {
			wait, granted := c.bucket.take(c.nw.eng.Now(), ClassifyOutcome(code))
			if !granted {
				c.nw.col.RecordBudgetExhausted()
				c.nw.col.RecordJob(j.attempts, false, j.firstSubmit, c.nw.eng.Now())
				c.jobDone(j.member)
				return
			}
			if wait > delay {
				// The token becomes available only after the policy's
				// (paced) backoff would have fired: the budget alone
				// delays this retry, so none of the pause counts as
				// pacer-added time.
				c.nw.col.RecordDeferStart()
				c.resubmissions++
				c.nw.eng.After(wait, func() {
					c.nw.col.RecordDeferEnd()
					c.submitAttempt(j)
				})
				return
			}
			if unpaced := delay - pause; wait > unpaced {
				// The token wait already covers part of the pause:
				// only the remainder stretched the schedule.
				pause = delay - wait
			}
		}
		if pause > 0 {
			c.nw.col.RecordPaced(pause)
		}
		c.resubmissions++
		c.nw.eng.After(delay, func() { c.submitAttempt(j) })
		return
	}
	c.nw.col.RecordJob(j.attempts, false, j.firstSubmit, c.nw.eng.Now())
	c.jobDone(j.member)
}

// pacePause converts the current congestion hint into the extra delay
// the backpressure pacer adds to the next submission: hint×Gain,
// capped at MaxPause. Zero without backpressure or when the selected
// producer reports no congestion, so the default configuration never
// alters scheduling. In split mode only the congestion component
// paces — a conflict storm no longer throttles fresh load.
func (c *clientCore) pacePause() time.Duration {
	if c.pacer == nil {
		return 0
	}
	if c.split != nil {
		_, congestion := c.currentSignals()
		return c.pacer.pause(congestion)
	}
	return c.pacer.pause(c.currentHint())
}

// currentHint resolves the congestion hint the configured producer(s)
// currently report: the highest per-channel orderer hint last seen on
// this driver's event stream, the live (decayed) gossip estimate, or
// their max. Each consultation of a gossip estimate records the age
// of the information behind it — the staleness-at-use metric.
func (c *clientCore) currentHint() float64 {
	var h float64
	if c.hintSrc.usesOrderer() {
		for _, ch := range c.hints {
			if ch > h {
				h = ch
			}
		}
	}
	if c.gossip != nil && c.hintSrc.usesGossip() {
		g, stale := c.gossip.estimate(c.nw.eng.Now())
		c.nw.col.RecordGossipUse(stale)
		if g > h {
			h = g
		}
	}
	return h
}

// currentSignals resolves the two split-mode signals from the
// configured producer(s): the conflict estimate (gossip only — the
// orderer has no conflict view) and the congestion estimate (the max
// of the per-channel orderer hints and the gossiped congestion
// component, per HintSource). Consultations of the gossip estimate
// record staleness-at-use exactly like the scalar path.
func (c *clientCore) currentSignals() (conflict, congestion float64) {
	if c.hintSrc.usesOrderer() {
		for _, ch := range c.hints {
			if ch > congestion {
				congestion = ch
			}
		}
	}
	if c.gossip != nil && c.hintSrc.usesGossip() {
		e, stale := c.gossip.splitEstimate(c.nw.eng.Now())
		c.nw.col.RecordGossipUse(stale)
		conflict = e.Conflict
		if e.Congestion > congestion {
			congestion = e.Congestion
		}
	}
	return conflict, congestion
}

// gossipObserve slides one attempt outcome into the gossip window
// (no-op without Config.Gossip). In split mode the outcome lands in
// the per-class windows, with the attempt's submit→resolution latency
// checked against the CongestLatency threshold as congestion evidence.
func (c *clientCore) gossipObserve(code ledger.ValidationCode, j *pendingTx) {
	if c.gossip == nil {
		return
	}
	if c.split != nil {
		latency := time.Duration(c.nw.eng.Now() - j.lastSubmit)
		congested := c.split.CongestLatency > 0 && latency >= c.split.CongestLatency
		c.gossip.observeSplit(ClassifyOutcome(code), congested)
		return
	}
	c.gossip.observe(code != ledger.Valid)
}

// startGossip schedules this driver's gossip rounds: every Period the
// driver samples Fanout distinct peer drivers and sends them its
// current estimate over the network model, like an SDK-side gossip
// mesh. The estimate trajectory is sampled once per round. Rounds run
// for the whole simulation (retries continue through the drain, so
// the signal must too); the engine simply stops executing them at the
// deadline.
func (c *clientCore) startGossip() {
	period := c.gossip.cfg.Period
	if period <= 0 || len(c.nw.drivers) < 2 {
		return
	}
	var round func()
	round = func() {
		c.gossipRound()
		c.nw.eng.After(period, round)
	}
	c.nw.eng.After(period, round)
}

// gossipRound sends the driver's current estimate to Fanout sampled
// peer drivers. Peer sampling draws from the simulation rng, so rounds
// are deterministic per (config, seed) like every other random
// decision. In cohort mode each cohort is one gossip node — its
// members share the estimate they spread — so the mesh size is the
// driver count, not the simulated client count.
func (c *clientCore) gossipRound() {
	now := c.nw.eng.Now()
	var est float64
	var se SplitEstimate
	if c.split != nil {
		se, _ = c.gossip.splitEstimate(now)
		c.nw.col.RecordSplitSample(se.Conflict, se.Congestion)
		est = se.Max()
	} else {
		est, _ = c.gossip.estimate(now)
	}
	c.nw.col.RecordGossipSample(est)
	n := len(c.nw.drivers)
	fanout := c.gossip.cfg.Fanout
	if fanout > n-1 {
		fanout = n - 1
	}
	if fanout <= 0 {
		return
	}
	// Sample fanout distinct peers other than self: a permutation of
	// the n-1 other indices, prefix-truncated.
	perm := c.nw.eng.Rand().Perm(n - 1)
	for _, p := range perm[:fanout] {
		if p >= c.index {
			p++ // skip self
		}
		peer := c.nw.drivers[p]
		c.nw.col.RecordGossipMessage()
		if c.split != nil {
			c.nw.net.Send(c.name, peer.Name(), func() { peer.onGossipSplit(se, now) })
		} else {
			c.nw.net.Send(c.name, peer.Name(), func() { peer.onGossip(est, now) })
		}
	}
}

// onGossip receives one peer driver's estimate (worth value at the
// sender's sentAt) and merges it by max-with-decay. Merges only update
// this driver's view; the hint-consuming policies read it lazily at
// their next backoff decision, and the pacer at its next pause.
func (c *clientCore) onGossip(value float64, sentAt sim.Time) {
	if c.gossip == nil {
		return
	}
	if c.gossip.merge(value, sentAt, c.nw.eng.Now()) {
		c.nw.col.RecordGossipMerge()
	}
}

// onGossipSplit receives one peer driver's two-component estimate
// (split mode) and merges it component-wise by max-with-decay.
func (c *clientCore) onGossipSplit(e SplitEstimate, sentAt sim.Time) {
	if c.gossip == nil || !c.gossip.split {
		return
	}
	if c.gossip.mergeSplit(e, sentAt, c.nw.eng.Now()) {
		c.nw.col.RecordGossipMerge()
	}
}

// observe feeds an attempt outcome to an adaptive policy and samples
// its resulting backoff level for the trajectory summary. Inert (and
// rng-neutral) for stateless policies. In split mode the outcome
// arrives classified per SignalClass when the policy supports it, so
// the controller can gate its increase on conflict-class failures.
func (c *clientCore) observe(code ledger.ValidationCode) {
	fed := false
	if c.classObs != nil {
		c.classObs.observeClass(ClassifyOutcome(code))
		fed = true
	} else if c.observer != nil {
		c.observer.observe(code != ledger.Valid)
		fed = true
	}
	if fed && c.reporter != nil {
		c.nw.col.RecordBackoffSample(c.reporter.currentBackoff())
	}
}

// jobDone closes a logical transaction; in closed-loop mode it keeps
// the member's in-flight window full while the send window is open,
// waiting out the configured think time first. The backpressure pacer
// delays new closed-loop work too — the shared signal throttles fresh
// load, not just retries. With no think time and no pacing the next
// job starts synchronously — the historical behaviour, with no extra
// events and no extra rng draws.
func (c *clientCore) jobDone(member int) {
	if !c.nw.cfg.ClosedLoop || c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
		return
	}
	think := c.nw.cfg.ThinkTime.sample(c.nw.eng)
	if pause := c.pacePause(); pause > 0 {
		c.nw.col.RecordPaced(pause)
		think += pause
	}
	if think <= 0 {
		c.submitJob(member)
		return
	}
	c.nw.eng.After(think, func() {
		// The window may have closed while thinking.
		if c.nw.eng.Now() < sim.Time(c.nw.cfg.Duration) {
			c.submitJob(member)
		}
	})
}

// Client is one Caliper-style load generator process (§4.2: 5 on C1,
// 25 on C2): the exact simulation, one driver object per simulated
// client. It draws invocations from the workload, runs the execution
// phase (collect endorsements from a policy-satisfying set of peers),
// assembles the envelope and submits it to an orderer node.
//
// Two arrival modes exist. Open loop (the paper's §4.5 setup):
// Poisson arrivals at rate/clients tps, and — unless a RetryPolicy is
// configured — failed transactions are never resent. Closed loop:
// the client keeps Config.InFlightPerClient logical transactions
// outstanding and submits the next as soon as one resolves.
//
// When the run needs outcome tracking (a retry policy or closed-loop
// mode), the client registers every submission in its pending table
// and listens for commit events delivered over the network by the
// metrics peer (and for early-abort events from the ordering
// service), exactly like a Fabric SDK client subscribed to a peer's
// block events. A failed attempt is resubmitted — re-endorsed from
// scratch with a fresh transaction id, same invocation — per the
// retry policy's backoff schedule.
//
// For sweeps where client count is a parameter rather than a cast of
// characters, see Cohort — the driver that amortizes one state object
// across many clients.
type Client struct {
	clientCore
}

func newClient(nw *Network, id int) *Client {
	c := &Client{}
	c.init(nw, id, id, 1, fmt.Sprintf("client%d", id))
	return c
}

// start schedules the arrival process for the send window. Open loop:
// Poisson arrivals whose mean inter-arrival time tracks the (possibly
// time-varying) configured rate. Closed loop: the initial in-flight
// window is opened and each resolved transaction triggers the next.
func (c *Client) start() {
	if c.gossip != nil {
		c.startGossip()
	}
	if c.nw.cfg.ClosedLoop {
		c.openWindow()
		return
	}
	mean := func() time.Duration {
		rate := c.nw.cfg.RateAt(time.Duration(c.nw.eng.Now()))
		return time.Duration(float64(time.Second) * float64(c.nw.cfg.Clients) / rate)
	}
	var arrive func()
	arrive = func() {
		if c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
			return // send window over
		}
		c.submitJob(0)
		c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
	}
	c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
}

package fabric

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Cohort is the client driver: one network node standing for members
// Caliper-style load generator processes (§4.2: 5 on C1, 25 on C2). It
// draws invocations from the workload, collects endorsements from a
// policy-satisfying set of peers, assembles the envelope and submits
// it to an orderer node. In open loop (the paper's §4.5 setup) each
// member arrives as a Poisson process at rate/clients tps; in closed
// loop each member keeps Config.InFlightPerClient logical transactions
// outstanding. When the run tracks outcomes (a retry policy or closed
// loop), the driver listens for commit and early-abort events like a
// Fabric SDK client subscribed to block events, and resubmits a failed
// attempt — fresh transaction id, same invocation — per the retry
// policy.
//
// Config.CohortSize sets members; 0 or 1 gives one driver per client.
// A cohort allocates its heavy state — pending table, retry-policy
// instance, budget bucket, gossip window — once and shares it across
// its members, keeping only one endorser-rotation counter per member.
// Memory and event-queue pressure therefore scale with the driver
// count (clients / CohortSize), not the client count, which is what
// makes 10^6-client sweeps tractable.
//
// With more than one member the approximations are explicit and small:
//
//   - Open loop: members share one aggregate Poisson arrival process
//     at members × the per-client rate. By superposition this is
//     exactly the sum of the members' independent Poisson processes;
//     the submitting member is drawn uniformly per arrival.
//   - Closed loop: each member keeps its own in-flight window, driven
//     through the shared machinery — the same event cadence as one
//     driver per client, amortized onto one object.
//   - Stateful retry policies (AdaptivePolicy), the retry budget and
//     the gossip window are shared: the cohort reacts to its members'
//     pooled outcome stream (a mean-field approximation). The budget's
//     refill rate and burst are scaled by the member count so the
//     aggregate retry allowance matches one driver per client.
//
// With a stateless retry policy and no budget/gossip/backpressure,
// closed-loop cohort runs are byte-identical to one driver per client
// (locked by TestCohortExactEquivalence); shared-state runs track the
// per-client aggregates within tolerances instead.
type Cohort struct {
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
	// by member count, so the aggregate retry allowance matches one
	// driver per client.
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

// newCohort builds the driver at position index of the network's
// driver list, driving members simulated clients whose global indices
// start at firstID.
func newCohort(nw *Network, index, firstID, members int) *Cohort {
	c := &Cohort{
		nw:       nw,
		index:    index,
		firstID:  firstID,
		members:  members,
		name:     fmt.Sprintf("client%d", index),
		rotation: make([]int, members),
		pending:  map[string]*pendingTx{},
		hints:    make([]float64, nw.channels),
		policy:   nw.retry,
		split:    nw.split,
		hintSrc:  nw.hintSrc,
	}
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
	if c.split != nil {
		if sa, ok := base.(splitAware); ok {
			sa.enableSplit()
			c.classObs, _ = base.(classObserver)
		}
	}
	if nw.tracking && nw.cfg.RetryBudget != nil {
		// One bucket serves the whole cohort: scale the refill stream
		// and capacity so the aggregate retry allowance equals members
		// independent per-client buckets.
		b := nw.cfg.RetryBudget.withDefaults()
		b.RefillPerSec *= float64(members)
		b.Burst *= float64(members)
		b.MaxRefillPerSec *= float64(members)
		c.bucket = newTokenBucket(b)
	}
	if nw.tracking && nw.bp != nil {
		c.pacer = nw.bp
	}
	if nw.gossip != nil {
		c.gossip = newGossipState(*nw.gossip, c.split != nil)
	}
	if c.pacer != nil || c.gossip != nil {
		c.hintObs, _ = base.(hintObserver)
	}
	return c
}

// Members reports how many simulated clients this driver drives.
func (c *Cohort) Members() int { return c.members }

// Resubmissions reports how many retry submissions this driver issued.
func (c *Cohort) Resubmissions() int { return c.resubmissions }

// Pending reports how many of this driver's attempts are still
// awaiting an outcome event (diagnostics; in-flight work at the end
// of a run).
func (c *Cohort) Pending() int { return len(c.pending) }

// start schedules the cohort's arrival process and, with gossip on,
// its gossip rounds. Closed loop: every member's in-flight window
// opens, in member order. Open loop: one aggregate Poisson process
// whose mean inter-arrival time tracks the (possibly time-varying)
// configured rate stands in for the members' independent arrivals
// (superposition), drawing the submitting member uniformly per
// arrival.
func (c *Cohort) start() {
	if c.gossip != nil {
		c.startGossip()
	}
	if c.nw.cfg.ClosedLoop {
		c.openWindow()
		return
	}
	mean := func() time.Duration {
		rate := c.nw.cfg.RateAt(time.Duration(c.nw.eng.Now()))
		return time.Duration(c.nw.cfg.arrivalMean(rate, c.members))
	}
	var arrive func()
	arrive = func() {
		if c.nw.eng.Now() >= sim.Time(c.nw.cfg.Duration) {
			return // send window over
		}
		member := 0
		if c.members > 1 {
			member = c.nw.eng.Rand().Intn(c.members)
		}
		c.submitJob(member)
		c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
	}
	c.nw.eng.After(c.nw.eng.Exponential(mean()), arrive)
}

// Command hyperlab regenerates the tables and figures of "Why Do My
// Blockchain Transactions Fail? A Study of Hyperledger Fabric"
// (SIGMOD 2021) from the simulated testbed, plus the lab's own
// experiments (retry-policies, retry-cotune, retry-coordination,
// scale). See docs/EXPERIMENTS.md for every experiment id and its
// sweep axes.
//
// Usage:
//
//	hyperlab -list                      list all experiments
//	hyperlab -exp fig7                  quick regime (30 virtual s, 1 seed)
//	hyperlab -run retry-policies -quick same as -exp (-quick is the default regime)
//	hyperlab -run retry-cotune -smoke   smoke regime (5 virtual s, shrunken grid; CI)
//	hyperlab -exp fig7 -full            paper regime (3 virtual min, 3 seeds)
//	hyperlab -exp all                   run everything (quick unless -full)
//	hyperlab -exp all -parallel 8       cap the worker pool (default: all cores)
//	hyperlab -adhoc -chaincode ehr -rate 100 -block 50 -db leveldb -system fabric++
//	                                    one ad-hoc run with a report line
//	hyperlab -adhoc -retry adaptive -budget 1:3:drop -closedloop -think exp:500ms
//	                                    ad-hoc run with adaptive resubmission,
//	                                    a per-client retry budget and think time
//	hyperlab -adhoc -retry hinted -backpressure on
//	                                    ad-hoc run with orderer-driven
//	                                    backpressure hints pacing the clients
//	hyperlab -adhoc -retry hinted -backpressure on -gossip 2:500ms -hintsource gossip
//	                                    ad-hoc run paced by the gossiped
//	                                    client-to-client congestion signal
//	hyperlab -adhoc -retry hinted -backpressure on -gossip on -hintsource gossip -split on
//	                                    same stack with the signal split:
//	                                    conflicts drive backoff, congestion
//	                                    drives pacing
//	hyperlab -run scale                 cohort drivers x multi-channel sharding,
//	                                    10^2..10^6 simulated clients
//	hyperlab -adhoc -clients 100000 -cohort 1000 -channels 4 -crosschannel 0.1
//	                                    ad-hoc sharded run: 100k clients in
//	                                    cohorts of 1000 over 4 channels
//	hyperlab -run faults                fault injection: crash/partition/flaky/
//	                                    slowdb scenarios x coordination mode
//	hyperlab -adhoc -faults crash -retry hinted -backpressure on
//	                                    ad-hoc run under the seeded crash
//	                                    scenario with client deadlines
//	hyperlab -adhoc -faults 'partition:1@5s+10s,etimeout=2s'
//	                                    ad-hoc run with an explicit fault event
//	hyperlab -render                    emit a generated genChain chaincode
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	lab "repro"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gen"
	"repro/internal/statedb"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		exp        = flag.String("exp", "", "experiment id (table2, table4, fig4..fig26, retry-policies, or 'all')")
		runID      = flag.String("run", "", "experiment id to run (alias of -exp)")
		full       = flag.Bool("full", false, "paper regime: 3 virtual minutes x 3 seeds")
		quick      = flag.Bool("quick", false, "quick regime: 30 virtual s, 1 seed (the default; overrides -full)")
		smoke      = flag.Bool("smoke", false, "smoke regime: 5 virtual s, shrunken grids (CI; overrides -full and -quick)")
		parallel   = flag.Int("parallel", 0, "simulations run concurrently per experiment (0 = all cores)")
		render     = flag.Bool("render", false, "print a generated genChain chaincode and exit")
		adhocRun   = flag.Bool("adhoc", false, "run one ad-hoc configuration")
		ccName     = flag.String("chaincode", "ehr", "ad-hoc run: ehr|dv|scm|drm|genchain")
		rate       = flag.Float64("rate", 100, "ad-hoc run: arrival rate in tps")
		blockSize  = flag.Int("block", 100, "ad-hoc run: block size")
		db         = flag.String("db", "couchdb", "ad-hoc run: couchdb|leveldb")
		system     = flag.String("system", "fabric", "ad-hoc run: fabric|fabric++|streamchain|fabricsharp")
		cluster    = flag.String("cluster", "C1", "ad-hoc run: C1|C2")
		skew       = flag.Float64("skew", 1, "ad-hoc run: Zipfian key skew")
		duration   = flag.Duration("duration", 30*time.Second, "ad-hoc run: virtual send window")
		seed       = flag.Int64("seed", 1, "ad-hoc run: random seed")
		dump       = flag.Int("dump", 0, "ad-hoc run: print JSON summaries of the first N blocks")
		retry      = flag.String("retry", "none", "ad-hoc run: retry policy none|immediate|backoff|adaptive|hinted")
		budget     = flag.String("budget", "", "ad-hoc run: retry budget 'rate:burst[:drop|defer][:adaptive]', e.g. 1:3, 2:5:drop, 1:3:drop:adaptive (empty = unlimited; default mode defer)")
		backpress  = flag.String("backpressure", "", "ad-hoc run: orderer congestion hints off|on|'smoothing:gain[:maxpause]', e.g. 0.5:1s:2s (empty = off)")
		gossip     = flag.String("gossip", "", "ad-hoc run: client-to-client congestion gossip off|on|'fanout:period[:decay]', e.g. 2:500ms:0.5 (empty = off)")
		hintSource = flag.String("hintsource", "", "ad-hoc run: congestion hint producer orderer|gossip|both (empty = orderer)")
		split      = flag.String("split", "", "ad-hoc run: split conflict/congestion signal off|on|<latency>, e.g. 3s sets the congestion-latency threshold (empty = off)")
		closedLoop = flag.Bool("closedloop", false, "ad-hoc run: closed-loop clients instead of Poisson arrivals")
		inflight   = flag.Int("inflight", 1, "ad-hoc run: closed-loop in-flight window per client")
		think      = flag.String("think", "none", "ad-hoc run: closed-loop think time none|fixed:<dur>|exp:<dur>|lognormal:<dur>[:sigma]")
		clients    = flag.Int("clients", 0, "ad-hoc run: simulated client population (0 = cluster default)")
		cohort     = flag.Int("cohort", 0, "ad-hoc run: clients per cohort driver (0/1 = one driver per client)")
		channels   = flag.Int("channels", 1, "ad-hoc run: channel count; each channel gets its own orderer and ledger")
		crossCh    = flag.Float64("crosschannel", 0, "ad-hoc run: fraction of transactions spanning two channels (needs -channels >= 2)")
		faults     = flag.String("faults", "", "ad-hoc run: fault schedule off|crash|partition|flaky|straggler|slowdb|chaos or 'kind[:target]@start+dur[:param][,...]' with etimeout=/stimeout= clauses (empty = off)")
		verbose    = flag.Bool("v", false, "print per-seed progress")
	)
	flag.Parse()

	id := *exp
	if *runID != "" {
		if id != "" && id != *runID {
			fatal(fmt.Errorf("conflicting -exp %q and -run %q", *exp, *runID))
		}
		id = *runID
	}
	switch {
	case *list:
		fmt.Println("Available experiments (paper table/figure -> id):")
		for _, e := range lab.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
	case *render:
		src, err := lab.RenderChaincode(lab.GenChainSpec(), true)
		if err != nil {
			fatal(err)
		}
		fmt.Println(src)
	case id != "":
		runExperiments(id, *full && !*quick, *smoke, *verbose, *parallel)
	case *adhocRun:
		adhoc(adhocOptions{
			ccName: *ccName, rate: *rate, blockSize: *blockSize,
			db: *db, system: *system, cluster: *cluster, skew: *skew,
			duration: *duration, seed: *seed, dump: *dump,
			retry: *retry, budget: *budget, think: *think,
			backpressure: *backpress, gossip: *gossip, hintSource: *hintSource,
			split:      *split,
			closedLoop: *closedLoop, inflight: *inflight,
			clients: *clients, cohort: *cohort,
			channels: *channels, crossChannel: *crossCh,
			faults: *faults,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hyperlab:", err)
	os.Exit(1)
}

func runExperiments(id string, full, smoke, verbose bool, parallel int) {
	opts := lab.QuickOptions()
	regime := "quick regime (30 virtual s, 1 seed)"
	if full {
		opts = lab.FullOptions()
		regime = "paper regime (3 virtual min, 3 seeds)"
	}
	if smoke {
		opts = lab.SmokeOptions()
		regime = "smoke regime (5 virtual s, shrunken grid)"
	}
	opts.Parallelism = parallel
	if verbose {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
	}
	var exps []lab.Experiment
	if id == "all" {
		exps = lab.Experiments()
	} else {
		e, err := lab.LookupExperiment(id)
		if err != nil {
			fatal(err)
		}
		exps = []lab.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		fmt.Printf("== %s: %s [%s]\n", e.ID, e.Title, regime)
		out, err := e.Run(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// adhocOptions bundles the ad-hoc runner's knobs.
type adhocOptions struct {
	ccName, db, system, cluster, retry string
	budget, think, backpressure        string
	gossip, hintSource, faults, split  string
	rate, skew, crossChannel           float64
	blockSize, dump, inflight          int
	clients, cohort, channels          int
	duration                           time.Duration
	seed                               int64
	closedLoop                         bool
}

// parseBudget parses the -budget syntax
// "rate:burst[:drop|defer][:adaptive]" into a RetryBudget ("" = no
// budget).
func parseBudget(s string) (*fabric.RetryBudget, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return nil, fmt.Errorf("budget %q: want rate:burst[:drop|defer][:adaptive]", s)
	}
	var b fabric.RetryBudget
	rate, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return nil, fmt.Errorf("budget rate %q: %w", parts[0], err)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("budget rate must be > 0 (got %g); omit -budget for no budget", rate)
	}
	b.RefillPerSec = rate
	burst, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("budget burst %q: %w", parts[1], err)
	}
	if burst <= 0 {
		return nil, fmt.Errorf("budget burst must be > 0 (got %g)", burst)
	}
	b.Burst = burst
	for _, part := range parts[2:] {
		switch part {
		case "drop":
			b.DropOnEmpty = true
		case "defer":
		case "adaptive":
			b.Adaptive = true
		default:
			return nil, fmt.Errorf("budget mode %q: want drop, defer or adaptive", part)
		}
	}
	return &b, b.Validate()
}

func adhoc(o adhocOptions) {
	cfg := fabric.DefaultConfig()

	switch strings.ToUpper(o.cluster) {
	case "C1":
		core.C1.Apply(&cfg)
	case "C2":
		core.C2.Apply(&cfg)
	default:
		fatal(fmt.Errorf("unknown cluster %q", o.cluster))
	}

	switch strings.ToLower(o.db) {
	case "couchdb":
		cfg.DBKind = statedb.CouchDB
	case "leveldb":
		cfg.DBKind = statedb.LevelDB
	default:
		fatal(fmt.Errorf("unknown database %q", o.db))
	}

	var sys core.System
	switch strings.ToLower(o.system) {
	case "fabric", "fabric-1.4":
		sys = core.Fabric14
	case "fabric++", "fabricpp":
		sys = core.FabricPP
	case "streamchain":
		sys = core.Streamchain
	case "fabricsharp", "fabric#":
		sys = core.FabricSharp
	default:
		fatal(fmt.Errorf("unknown system %q", o.system))
	}
	cfg.Variant = sys.Variant()

	switch strings.ToLower(o.retry) {
	case "none", "":
		cfg.Retry = fabric.NoRetry{}
	case "immediate":
		cfg.Retry = fabric.ImmediateRetry{MaxAttempts: 3}
	case "backoff":
		cfg.Retry = fabric.ExponentialBackoff{
			Initial: 200 * time.Millisecond, Cap: 2 * time.Second,
			MaxAttempts: 5, Jitter: 0.2,
		}
	case "adaptive":
		cfg.Retry = fabric.AdaptivePolicy{MaxAttempts: 5, Jitter: 0.2}
	case "hinted":
		cfg.Retry = fabric.BackpressurePolicy{MaxAttempts: 5, Jitter: 0.2}
	default:
		fatal(fmt.Errorf("unknown retry policy %q", o.retry))
	}
	budget, err := parseBudget(o.budget)
	if err != nil {
		fatal(err)
	}
	cfg.RetryBudget = budget
	bp, err := fabric.ParseBackpressure(o.backpressure)
	if err != nil {
		fatal(err)
	}
	cfg.Backpressure = bp
	gp, err := fabric.ParseGossip(o.gossip)
	if err != nil {
		fatal(err)
	}
	cfg.Gossip = gp
	src, err := fabric.ParseHintSource(o.hintSource)
	if err != nil {
		fatal(err)
	}
	cfg.HintSource = src
	sp, err := fabric.ParseSplitSignal(o.split)
	if err != nil {
		fatal(err)
	}
	cfg.SplitSignal = sp
	// The hinted policy needs a signal that actually reaches the hint
	// path: the orderer's (requires -backpressure) or the gossip
	// estimate (requires -gossip AND a -hintsource that uses it).
	ordererFeeds := bp != nil && src != fabric.HintGossip
	gossipFeeds := gp != nil && src != fabric.HintOrderer
	if _, hinted := cfg.Retry.(fabric.BackpressurePolicy); hinted && !ordererFeeds && !gossipFeeds {
		fmt.Fprintln(os.Stderr, "hyperlab: note: -retry hinted without a hint producer (-backpressure, or -gossip with -hintsource gossip|both) degenerates to a constant floor backoff")
	}
	flt, err := fabric.ParseFaults(o.faults)
	if err != nil {
		fatal(err)
	}
	cfg.Faults = flt
	thinkTime, err := fabric.ParseThinkTime(o.think)
	if err != nil {
		fatal(err)
	}
	cfg.ThinkTime = thinkTime
	cfg.ClosedLoop = o.closedLoop
	cfg.InFlightPerClient = o.inflight
	if o.clients > 0 {
		cfg.Clients = o.clients
	}
	cfg.CohortSize = o.cohort
	cfg.Channels = o.channels
	cfg.CrossChannel = o.crossChannel

	switch strings.ToLower(o.ccName) {
	case "genchain":
		spec := gen.GenChainSpec()
		cfg.Chaincode = gen.MustChaincode(spec)
		cfg.Workload = gen.NewWorkload(spec, gen.UpdateHeavy, o.skew)
	default:
		f, err := core.UseCase(strings.ToLower(o.ccName))
		if err != nil {
			fatal(err)
		}
		cfg.Chaincode = f.New()
		cfg.Workload = f.Workload(o.skew)
	}

	cfg.Rate = o.rate
	cfg.BlockSize = o.blockSize
	cfg.Duration = o.duration
	cfg.Drain = o.duration
	cfg.Seed = o.seed
	// Keep full transaction payloads so the hash chain can be
	// re-verified after the run.
	cfg.StripAfterCommit = false

	nw, err := fabric.NewNetwork(cfg)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	rep := nw.Run()
	mode := "open-loop"
	if o.closedLoop {
		mode = fmt.Sprintf("closed-loop(%d)", o.inflight)
	}
	if o.cohort > 1 {
		mode += fmt.Sprintf(", %d clients in cohorts of %d", cfg.Clients, o.cohort)
	}
	if o.channels > 1 {
		mode += fmt.Sprintf(", %d channels (%.0f%% cross-channel)", o.channels, 100*o.crossChannel)
	}
	fmt.Printf("%s on %s, %s, rate %.0f tps, block %d, db %s, skew %.1f, retry %s, %s (%v virtual, %v real)\n",
		sys, o.cluster, o.ccName, o.rate, o.blockSize, cfg.DBKind, o.skew,
		cfg.Retry.Name(), mode,
		o.duration, time.Since(start).Round(time.Millisecond))
	fmt.Println(rep)
	if _, none := cfg.Retry.(fabric.NoRetry); !none || cfg.ClosedLoop {
		fmt.Printf("effective: jobs=%d eventual-valid=%d gave-up=%d attempts=%d e2e=%v\n",
			rep.Jobs, rep.EventualValid, rep.GaveUp, rep.Attempts,
			rep.AvgEndToEnd.Round(time.Millisecond))
	}
	if cfg.RetryBudget != nil {
		fmt.Printf("budget %s: exhausted=%d deferred=%d max-deferred-depth=%d\n",
			cfg.RetryBudget.Name(), rep.BudgetExhausted, rep.DeferredRetries, rep.MaxDeferredDepth)
	}
	if rep.AdaptiveBackoffMax > 0 {
		fmt.Printf("adaptive backoff: avg=%v max=%v final=%v\n",
			rep.AdaptiveBackoffAvg.Round(time.Millisecond),
			rep.AdaptiveBackoffMax.Round(time.Millisecond),
			rep.AdaptiveBackoffFinal.Round(time.Millisecond))
	}
	if cfg.Backpressure != nil {
		fmt.Printf("backpressure %s: hint avg=%.3f max=%.3f final=%.3f paced=%d time-paced=%v\n",
			cfg.Backpressure.Name(), rep.BackpressureHintAvg, rep.BackpressureHintMax,
			rep.BackpressureHintFinal, rep.PacedSubmissions,
			rep.TimePaced.Round(time.Millisecond))
	}
	if cfg.Gossip != nil {
		fmt.Printf("gossip %s via %s: msgs=%d merges=%d est avg=%.3f max=%.3f final=%.3f stale avg=%v max=%v\n",
			cfg.Gossip.Name(), cfg.HintSource, rep.GossipMessages, rep.GossipMerges,
			rep.GossipEstimateAvg, rep.GossipEstimateMax, rep.GossipEstimateFinal,
			rep.GossipStalenessAvg.Round(time.Millisecond),
			rep.GossipStalenessMax.Round(time.Millisecond))
	}
	if cfg.SplitSignal != nil {
		fmt.Printf("split %s: conflict avg=%.3f max=%.3f final=%.3f congestion avg=%.3f max=%.3f final=%.3f\n",
			cfg.SplitSignal.Name(), rep.ConflictEstAvg, rep.ConflictEstMax,
			rep.ConflictEstFinal, rep.CongestEstAvg, rep.CongestEstMax,
			rep.CongestEstFinal)
	}
	if cfg.Faults != nil {
		fmt.Printf("faults %s: windows=%d crashes=%d downtime=%v eto=%d sto=%d orphans=%d recoveries=%d recov avg=%v max=%v\n",
			cfg.Faults.Name(), rep.FaultWindows, rep.NodeCrashes,
			rep.NodeDowntime.Round(time.Millisecond),
			rep.EndorseTimeouts, rep.SubmitTimeouts, rep.OrphanedTxs,
			rep.Recoveries,
			rep.RecoveryAvg.Round(time.Millisecond),
			rep.RecoveryMax.Round(time.Millisecond))
	}
	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			fatal(fmt.Errorf("channel %d chain verification failed: %w", ch, err))
		}
	}
	if chains := nw.Chains(); len(chains) > 1 {
		for ch, chain := range chains {
			fmt.Printf("channel %d: %d blocks, %d transactions, hash chain verified\n",
				ch, chain.Height(), chain.TxCount())
		}
	} else {
		fmt.Printf("chain: %d blocks, %d transactions, hash chain verified\n",
			nw.Chain().Height(), nw.Chain().TxCount())
	}
	for n := uint64(1); n <= uint64(o.dump) && n < nw.Chain().Height(); n++ {
		summary, err := nw.Chain().Block(n).MarshalSummary()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(summary))
	}
}

package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chaincodes/dv"
	"repro/internal/chaincodes/ehr"
	"repro/internal/fabric"
	"repro/internal/fabricpp"
	"repro/internal/gen"
	"repro/internal/statedb"
)

// Every workload simulates the same virtual window as the repository's
// SingleRun benchmarks: 12 s of sending plus 18 s of drain.
const (
	sendWindow  = 12 * time.Second
	drainWindow = 18 * time.Second
)

// workloads maps a workload name to the function that makes its
// configuration. Each call returns a fresh config: chaincodes, workload
// generators and variants carry per-run state.
var workloads = map[string]func(seed int64) fabric.Config{
	"ehr-point":         ehrPoint,
	"dv-range":          dvRange,
	"million-chaos":     millionChaos,
	"genchain-fabricpp": genchainFabricPP,
}

// workloadNames lists the workloads in sorted order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildConfig returns the named workload's configuration for seed.
func buildConfig(name string, seed int64) (fabric.Config, error) {
	build, ok := workloads[name]
	if !ok {
		return fabric.Config{}, fmt.Errorf("unknown workload %q (want one of %s)",
			name, strings.Join(workloadNames(), ", "))
	}
	return build(seed), nil
}

// base is fabric.DefaultConfig (C1 topology, Kafka, policy P0, block
// size 100, 2 s block timeout, CouchDB, 5 open-loop clients at 100 tps)
// over the benchmark's virtual window. Payloads are kept after commit:
// Chain.Verify rehashes every transaction's read/write set, and
// stripping range observations after commit changes that hash.
func base(seed int64) fabric.Config {
	cfg := fabric.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = sendWindow
	cfg.Drain = drainWindow
	cfg.StripAfterCommit = false
	return cfg
}

// ehrPoint: point read-modify-writes of JSON records, fire-and-forget.
func ehrPoint(seed int64) fabric.Config {
	cfg := base(seed)
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	return cfg
}

// dvRange: every vote scans all voters; range reads dominate.
func dvRange(seed int64) fabric.Config {
	cfg := base(seed)
	cfg.Chaincode = dv.New()
	cfg.Workload = dv.NewWorkload(1)
	return cfg
}

// millionChaos: 10^6 clients in cohorts on four channels, with every
// client-control subsystem and the chaos fault scenario switched on.
func millionChaos(seed int64) fabric.Config {
	cfg := base(seed)
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(2)
	cfg.Rate = 200
	cfg.Clients = 1_000_000
	cfg.CohortSize = 10_000
	cfg.Channels = 4
	cfg.CrossChannel = 0.1
	cfg.Retry = fabric.ExponentialBackoff{
		Initial: 200 * time.Millisecond, Cap: 2 * time.Second, MaxAttempts: 5, Jitter: 0.2}
	cfg.RetryBudget = &fabric.RetryBudget{RefillPerSec: 1, Burst: 3, DropOnEmpty: true, Adaptive: true}
	cfg.Backpressure = &fabric.Backpressure{}
	cfg.Gossip = &fabric.Gossip{}
	cfg.HintSource = fabric.HintBoth
	cfg.SplitSignal = &fabric.SplitSignal{}
	cfg.Faults = &fabric.Faults{Scenario: "chaos"}
	return cfg
}

// genchainFabricPP: genChain's 100k keys, update-heavy mix, on LevelDB
// with Fabric++ reordering at the cut. Set-up takes about ten times
// as long as a 30 s run here, so this workload keeps DefaultConfig's
// 3-minute send window and 1-minute drain, which makes the run long
// enough to time.
func genchainFabricPP(seed int64) fabric.Config {
	cfg := base(seed)
	cfg.Duration, cfg.Drain = 3*sendWindow, 3*drainWindow
	spec := gen.GenChainSpec()
	cfg.DBKind = statedb.LevelDB
	cfg.Chaincode = gen.MustChaincode(spec)
	cfg.Workload = gen.NewWorkload(spec, gen.UpdateHeavy, 1)
	cfg.Variant = fabricpp.New()
	return cfg
}

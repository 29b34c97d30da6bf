package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/metrics"
)

// fingerprintOf identifies a run's simulated outcome: the outcome
// counts, every channel's tip hash, the number of events the engine
// processed, and a digest of the full report. Two runs of one workload
// and seed must give the same fingerprint, whatever the host, the
// tracing, or any change that only claims speed.
func fingerprintOf(nw *fabric.Network, rep metrics.Report) string {
	codes := make([]int, 0, len(rep.Counts))
	for code := range rep.Counts {
		codes = append(codes, int(code))
	}
	sort.Ints(codes)
	parts := []string{fmt.Sprintf("total=%d committed=%d valid=%d", rep.Total, rep.Committed, rep.Valid)}
	for _, c := range codes {
		code := ledger.ValidationCode(c)
		parts = append(parts, fmt.Sprintf("%s=%d", code, rep.Counts[code]))
	}
	var tips []string
	for _, chain := range nw.Chains() {
		tip := chain.Block(chain.Height() - 1)
		tips = append(tips, hex.EncodeToString(tip.Hash[:8]))
	}
	// %+v prints maps in sorted key order, so the digest is stable.
	report := sha256.Sum256([]byte(fmt.Sprintf("%+v", rep)))
	return fmt.Sprintf("%s events=%d tips=%s report=%s", strings.Join(parts, " "),
		nw.Engine().Processed(), strings.Join(tips, ","), hex.EncodeToString(report[:8]))
}

// checkRun checks a finished run's output: every channel's hash chain
// verifies, outcomes are conserved, and the chains hold exactly the
// committed transactions.
func checkRun(nw *fabric.Network, rep metrics.Report) error {
	onChain := 0
	for ch, chain := range nw.Chains() {
		if err := chain.Verify(); err != nil {
			return fmt.Errorf("channel %d: %w", ch, err)
		}
		onChain += chain.TxCount()
	}
	if rep.Total < 1 {
		return fmt.Errorf("empty run: no transaction finished")
	}
	sum := 0
	for _, n := range rep.Counts {
		sum += n
	}
	if sum != rep.Total {
		return fmt.Errorf("outcome counts sum to %d, report total is %d", sum, rep.Total)
	}
	if rep.Valid > rep.Committed || rep.Committed > rep.Total {
		return fmt.Errorf("want valid <= committed <= total, got %d, %d, %d", rep.Valid, rep.Committed, rep.Total)
	}
	if onChain != rep.Committed {
		return fmt.Errorf("chains hold %d transactions, report committed %d", onChain, rep.Committed)
	}
	return nil
}

package main

import (
	"crypto/sha256"
	"sort"
	"strconv"
	"time"
)

// refNominal is the reference task's median time on the host the
// benchmark reports in: the 2-vCPU Xeon (2.1 GHz) it was calibrated on.
const refNominal = 14 * time.Millisecond

// refSink keeps the reference task's result alive.
var refSink int

// referenceTask times a fixed piece of work that uses none of the
// repository's code: small allocations, string building, SHA-256, map
// inserts and lookups and sorts, the mix the simulation spends its
// time on. A shared host's speed drifts by tens of percent within
// seconds. The simulation and this task drift together, so dividing a
// run's times by the task's median time removes the drift but keeps
// any change in the repository's code.
func referenceTask() time.Duration {
	begin := time.Now()
	for round := 0; round < 4; round++ {
		refRound()
	}
	return time.Since(begin)
}

func refRound() {
	const n = 6000
	m := make(map[string][]byte)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := "key_" + strconv.Itoa((i*7919)%n)
		h := sha256.Sum256([]byte(k))
		m[k] = append([]byte(nil), h[:]...)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += len(m[k])
	}
	refSink += total
}

package fabric

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chaincodes/ehr"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ehrInvocations draws n invocations from the default EHR workload.
func ehrInvocations(n int) []workload.Invocation {
	wl := ehr.NewWorkload(1)
	rng := rand.New(rand.NewSource(1))
	invs := make([]workload.Invocation, n)
	for i := range invs {
		invs[i] = wl.Next(rng)
	}
	return invs
}

// BenchmarkPeerEndorse_EHR times one endorsement through Peer.Endorse
// on a CouchDB replica at genesis: the EHR invocation, the rwset digest
// and the signature, plus the engine step that delivers the response.
func BenchmarkPeerEndorse_EHR(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Duration = time.Second
	cfg.Chaincode = ehr.New()
	cfg.Workload = ehr.NewWorkload(1)
	nw, err := NewNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := nw.peers[0]
	invs := ehrInvocations(1024)
	ok := 0
	respond := func(end *ledger.Endorsement, err error) {
		if err == nil && end != nil {
			ok++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Endorse(invs[i%len(invs)], 0, respond)
		// Deliver the response and free the endorsement worker.
		nw.eng.RunUntil(nw.eng.Now() + sim.Time(time.Second))
	}
	b.StopTimer()
	if ok != b.N {
		b.Fatalf("%d of %d endorsements succeeded", ok, b.N)
	}
}

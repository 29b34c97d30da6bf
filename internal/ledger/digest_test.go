package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// referenceDigest is the field-by-field encoding Digest must produce:
// every length and integer as 8 little-endian bytes, each written to
// the hash on its own.
func referenceDigest(rw *RWSet) [32]byte {
	h := sha256.New()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	read := func(r KVRead) {
		str(r.Key)
		u64(r.Version.BlockNum)
		u64(r.Version.TxNum)
	}
	u64(uint64(len(rw.Reads)))
	for _, r := range rw.Reads {
		read(r)
	}
	u64(uint64(len(rw.Writes)))
	for _, w := range rw.Writes {
		str(w.Key)
		h.Write(w.Value)
		if w.IsDelete {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	u64(uint64(len(rw.RangeQueries)))
	for _, rq := range rw.RangeQueries {
		str(rq.StartKey)
		str(rq.EndKey)
		u64(uint64(len(rq.Reads)))
		for _, r := range rq.Reads {
			read(r)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// dvVote is shaped like one Digital Voting vote: two point reads, a
// write, and a checked scan of nVoters voter keys whose encoding spans
// many of Digest's buffer flushes.
func dvVote(nVoters int) *RWSet {
	rw := &RWSet{
		Reads: []KVRead{
			{Key: "voter_0042", Version: Height{7, 3}},
			{Key: "party_03", Version: Height{9, 1}},
		},
		Writes: []KVWrite{
			{Key: "voter_0042", Value: []byte(`{"voted":true,"party":"party_03"}`)},
			{Key: "party_03", Value: []byte(`{"votes":12}`)},
		},
	}
	scan := RangeQueryInfo{StartKey: "voter_", EndKey: "voter_~"}
	for i := 0; i < nVoters; i++ {
		scan.Reads = append(scan.Reads, KVRead{
			Key:     fmt.Sprintf("voter_%04d", i),
			Version: Height{uint64(i % 17), uint64(i % 5)},
		})
	}
	rw.RangeQueries = append(rw.RangeQueries, scan,
		RangeQueryInfo{Unchecked: true, Reads: []KVRead{{Key: "party_01"}}})
	return rw
}

// goldenRWSets are the rwsets whose digests are pinned below.
func goldenRWSets() map[string]*RWSet {
	return map[string]*RWSet{
		"empty": {},
		"delete-nil-value": {
			Reads: []KVRead{{Key: "k1", Version: Height{3, 4}}},
			Writes: []KVWrite{
				{Key: "k1", IsDelete: true},
				{Key: "k2", Value: []byte("v")},
				{Key: "k3", Value: []byte{}, IsDelete: true},
			},
		},
		"dv-vote-1000": dvVote(1000),
		"long-fields": {
			Reads:  []KVRead{{Key: strings.Repeat("r", 9000), Version: Height{1, 2}}},
			Writes: []KVWrite{{Key: strings.Repeat("w", 5000), Value: []byte(strings.Repeat("v", 20000))}},
			RangeQueries: []RangeQueryInfo{{
				StartKey: strings.Repeat("a", 3000),
				EndKey:   strings.Repeat("b", 7000),
			}},
		},
	}
}

// TestDigestGolden pins Digest's encoding: the hex digests were
// computed by the original one-Write-per-field encoder.
func TestDigestGolden(t *testing.T) {
	want := map[string]string{
		"empty":            "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
		"delete-nil-value": "ebad13e22f03af39157e3dfd85c3bab19e82ce97777f626d1a237533f0270b07",
		"dv-vote-1000":     "ad154a51377d198125421f125aa6d537106d64a9b164ee449ee17ab6fea1ccf0",
		"long-fields":      "95b28cb0db1de6203fa4cddac1a3ec07c437c7e01be912fd79350fe28cc1bbc0",
	}
	for name, rw := range goldenRWSets() {
		d := rw.Digest()
		if got := hex.EncodeToString(d[:]); got != want[name] {
			t.Errorf("%s: Digest = %s, want %s", name, got, want[name])
		}
	}
}

// randomRWSet draws an rwset with empty, nil and long fields mixed in,
// so the encodings cross Digest's flush boundary at every offset.
func randomRWSet(r *rand.Rand) *RWSet {
	str := func() string {
		switch r.Intn(16) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("x", r.Intn(5000))
		}
		return fmt.Sprintf("key_%d", r.Intn(100000))
	}
	read := func() KVRead {
		return KVRead{Key: str(), Version: Height{r.Uint64(), r.Uint64()}}
	}
	rw := &RWSet{}
	for i := r.Intn(20); i > 0; i-- {
		rw.Reads = append(rw.Reads, read())
	}
	for i := r.Intn(20); i > 0; i-- {
		w := KVWrite{Key: str(), IsDelete: r.Intn(3) == 0}
		if r.Intn(4) > 0 {
			w.Value = []byte(str())
		}
		rw.Writes = append(rw.Writes, w)
	}
	for i := r.Intn(4); i > 0; i-- {
		rq := RangeQueryInfo{StartKey: str(), EndKey: str(), Unchecked: r.Intn(2) == 0}
		for j := r.Intn(300); j > 0; j-- {
			rq.Reads = append(rq.Reads, read())
		}
		rw.RangeQueries = append(rw.RangeQueries, rq)
	}
	return rw
}

// Property: Digest equals the field-by-field reference encoding.
func TestDigestMatchesReferenceEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		if rw := randomRWSet(r); rw.Digest() != referenceDigest(rw) {
			t.Fatalf("case %d: Digest differs from the reference encoder", i)
		}
	}
	for name, rw := range goldenRWSets() {
		if rw.Digest() != referenceDigest(rw) {
			t.Errorf("%s: Digest differs from the reference encoder", name)
		}
	}
}

func TestDigestDoesNotAllocate(t *testing.T) {
	rw := dvVote(1000)
	if n := testing.AllocsPerRun(20, func() { rw.Digest() }); n != 0 {
		t.Errorf("Digest allocates %.0f times per call, want 0", n)
	}
}

var digestSink [32]byte

// BenchmarkRWSetDigest_DVVote hashes one DV-sized rwset: a vote whose
// range observation holds all 1000 voters.
func BenchmarkRWSetDigest_DVVote(b *testing.B) {
	rw := dvVote(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = rw.Digest()
	}
}

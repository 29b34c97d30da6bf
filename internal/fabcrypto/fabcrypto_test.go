package fabcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSignVerify(t *testing.T) {
	msp := NewMSP("secret")
	id := msp.Register("Org0", "peer0")
	digest := []byte("payload-digest")
	sig := id.Sign(digest)
	if !msp.Verify("Org0", "peer0", digest, sig) {
		t.Fatal("valid signature rejected")
	}
	if msp.Verify("Org0", "peer0", []byte("other"), sig) {
		t.Fatal("signature accepted for wrong digest")
	}
	if msp.Verify("Org1", "peer0", digest, sig) {
		t.Fatal("signature accepted for unregistered identity")
	}
}

func TestDistinctIdentitiesDistinctSignatures(t *testing.T) {
	msp := NewMSP("secret")
	a := msp.Register("Org0", "peer0")
	b := msp.Register("Org0", "peer1")
	d := []byte("digest")
	if string(a.Sign(d)) == string(b.Sign(d)) {
		t.Fatal("two identities produced identical signatures")
	}
	if msp.Verify("Org0", "peer1", d, a.Sign(d)) {
		t.Fatal("peer1 verified peer0's signature")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	msp := NewMSP("s")
	a := msp.Register("Org0", "peer0")
	b := msp.Register("Org0", "peer0")
	if a != b {
		t.Fatal("re-registering returned a different identity")
	}
	if got := msp.Members("Org0"); len(got) != 1 {
		t.Fatalf("Members = %v", got)
	}
}

func TestOrgsAndMembersSorted(t *testing.T) {
	msp := NewMSP("s")
	msp.Register("Org2", "b")
	msp.Register("Org0", "z")
	msp.Register("Org0", "a")
	msp.Register("Org1", "m")
	os := msp.Orgs()
	if len(os) != 3 || os[0] != "Org0" || os[2] != "Org2" {
		t.Errorf("Orgs = %v", os)
	}
	ms := msp.Members("Org0")
	if len(ms) != 2 || ms[0] != "a" || ms[1] != "z" {
		t.Errorf("Members = %v", ms)
	}
}

func TestLookupMissing(t *testing.T) {
	msp := NewMSP("s")
	if msp.Lookup("nope", "nobody") != nil {
		t.Fatal("Lookup returned identity for unregistered name")
	}
}

func TestNames(t *testing.T) {
	if OrgName(3) != "Org3" {
		t.Errorf("OrgName = %q", OrgName(3))
	}
	if PeerName("Org3", 1) != "Org3-peer1" {
		t.Errorf("PeerName = %q", PeerName("Org3", 1))
	}
}

func TestDeterministicAcrossMSPInstances(t *testing.T) {
	a := NewMSP("same-secret").Register("Org0", "peer0")
	b := NewMSP("same-secret").Register("Org0", "peer0")
	d := []byte("digest")
	if string(a.Sign(d)) != string(b.Sign(d)) {
		t.Fatal("same secret+identity gave different signatures")
	}
	c := NewMSP("other-secret").Register("Org0", "peer0")
	if string(a.Sign(d)) == string(c.Sign(d)) {
		t.Fatal("different secrets gave identical signatures")
	}
}

// Property: round-trip verification holds for arbitrary org/id/digest.
func TestSignVerifyProperty(t *testing.T) {
	msp := NewMSP("prop")
	f := func(org, id string, digest []byte) bool {
		if org == "" || id == "" {
			return true
		}
		ident := msp.Register(org, id)
		return msp.Verify(org, id, digest, ident.Sign(digest))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

// Golden signatures, computed with hmac.New(sha256.New, key) where key
// is hmac.New(sha256.New, secret) over "org/id". Any change to the
// signing construction shows up here as different bytes.
func TestSignGolden(t *testing.T) {
	cases := []struct{ secret, org, id, digest, sig string }{
		{"secret", "Org0", "peer0", "payload-digest", "3bf8e5ee59ba21c36aa2fb6a69228da2871a5c5f5da59f18d9493edc31e3de2a"},
		{"fabric-sim", "Org3", "Org3-peer1", "", "a96830edfbd99d2ca9e4045fc6fa9a1f26d8ea15b7f08379d5a11f20864731d4"},
		{"x", "Org9", "client42", "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789", "eddaf2fa3de11958085dd3291b5b354672b5627851d256531660ed916e2b7bbe"},
	}
	for _, c := range cases {
		msp := NewMSP(c.secret)
		got := hex.EncodeToString(msp.Register(c.org, c.id).Sign([]byte(c.digest)))
		if got != c.sig {
			t.Errorf("%s/%s over %q: sig %s, want %s", c.org, c.id, c.digest, got, c.sig)
		}
	}
}

// refSign is the reference construction: HMAC-SHA256 keyed by
// HMAC-SHA256(secret, "org/id"), computed with crypto/hmac.
func refSign(secret, org, id string, digest []byte) []byte {
	k := hmac.New(sha256.New, []byte(secret))
	k.Write([]byte(org + "/" + id))
	m := hmac.New(sha256.New, k.Sum(nil))
	m.Write(digest)
	return m.Sum(nil)
}

// Property: Sign equals crypto/hmac for arbitrary secrets, names and
// digests, including digests longer than one SHA-256 block.
func TestSignMatchesCryptoHMAC(t *testing.T) {
	f := func(secret, org, id string, digest []byte, long bool) bool {
		if long {
			digest = bytes.Repeat(append(digest, 'x'), 40)
		}
		ident := NewMSP(secret).Register(org, id)
		return bytes.Equal(ident.Sign(digest), refSign(secret, org, id, digest))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestVerifyAllocationFree(t *testing.T) {
	msp := NewMSP("s")
	digest := bytes.Repeat([]byte{7}, 32)
	sig := msp.Register("Org0", "peer0").Sign(digest)
	if n := testing.AllocsPerRun(100, func() {
		if !msp.Verify("Org0", "peer0", digest, sig) {
			t.Fatal("valid signature rejected")
		}
	}); n != 0 {
		t.Errorf("Verify allocates %.1f times per call, want 0", n)
	}
}

// One Identity signs from many goroutines at once; the race detector
// and the reference comparison catch shared mutable state.
func TestConcurrentSign(t *testing.T) {
	ident := NewMSP("s").Register("Org1", "peer0")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := []byte(fmt.Sprintf("g%d-i%d", g, i))
				if !bytes.Equal(ident.Sign(d), refSign("s", "Org1", "peer0", d)) {
					t.Errorf("goroutine %d iteration %d: wrong signature", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var (
	sigSink    []byte
	verifySink bool
)

func BenchmarkIdentitySign(b *testing.B) {
	ident := NewMSP("bench").Register("Org0", "Org0-peer0")
	digest := bytes.Repeat([]byte{1}, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sigSink = ident.Sign(digest)
	}
}

func BenchmarkMSPVerify(b *testing.B) {
	msp := NewMSP("bench")
	digest := bytes.Repeat([]byte{1}, 32)
	sig := msp.Register("Org0", "Org0-peer0").Sign(digest)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		verifySink = msp.Verify("Org0", "Org0-peer0", digest, sig)
	}
}

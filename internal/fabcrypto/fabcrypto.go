// Package fabcrypto provides the identity and signature substrate of
// the simulated network: organizations, peer identities and an
// MSP-like registry. Signatures are HMAC-SHA256 over the signed
// digest; the study's endorsement-policy logic only needs signatures
// that are verifiable and bound to an identity, not a particular
// cipher, so a keyed MAC stands in for X.509/ECDSA (documented
// substitution in DESIGN.md).
//
// Each identity's key is pre-padded at registration: the key⊕ipad and
// key⊕opad blocks of HMAC are computed once, so signing and verifying
// run HMAC by its definition over two plain SHA-256 passes, with no
// per-call keyed state and no allocation on verify.
package fabcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"sort"
)

// Identity is a signing principal: a peer (or client) belonging to an
// organization. It holds no mutable state, so one Identity may sign
// from several goroutines at once.
type Identity struct {
	Org string
	ID  string
	// ipad and opad are the HMAC key XOR-ed with the inner and outer
	// pad bytes, each one SHA-256 block long.
	ipad, opad [sha256.BlockSize]byte
}

func newIdentity(org, id string, key []byte) *Identity {
	ident := &Identity{Org: org, ID: id}
	// Keys are HMAC-SHA256 outputs, shorter than a block, so HMAC
	// zero-pads them rather than hashing them first.
	copy(ident.ipad[:], key)
	copy(ident.opad[:], key)
	for i := range ident.ipad {
		ident.ipad[i] ^= 0x36
		ident.opad[i] ^= 0x5c
	}
	return ident
}

// mac writes HMAC-SHA256(key, msg) into out:
// SHA-256(key⊕opad ‖ SHA-256(key⊕ipad ‖ msg)).
func (id *Identity) mac(out *[sha256.Size]byte, msg []byte) {
	h := sha256.New()
	h.Write(id.ipad[:])
	h.Write(msg)
	h.Sum(out[:0])
	h.Reset()
	h.Write(id.opad[:])
	h.Write(out[:])
	h.Sum(out[:0])
}

// Sign produces a signature over digest.
func (id *Identity) Sign(digest []byte) []byte {
	var sum [sha256.Size]byte
	id.mac(&sum, digest)
	return append([]byte(nil), sum[:]...)
}

// MSP is the membership service provider: it registers identities and
// verifies signatures against them.
type MSP struct {
	identities map[string]*Identity // "org/id" -> identity
	orgs       map[string][]string  // org -> member ids (sorted)
	secret     []byte
}

// NewMSP creates an empty registry. The secret seeds per-identity
// keys deterministically.
func NewMSP(secret string) *MSP {
	return &MSP{
		identities: map[string]*Identity{},
		orgs:       map[string][]string{},
		secret:     []byte(secret),
	}
}

func qualify(org, id string) string { return org + "/" + id }

// Register creates (or returns) the identity org/id.
func (m *MSP) Register(org, id string) *Identity {
	q := qualify(org, id)
	if existing, ok := m.identities[q]; ok {
		return existing
	}
	mac := hmac.New(sha256.New, m.secret)
	mac.Write([]byte(q))
	ident := newIdentity(org, id, mac.Sum(nil))
	m.identities[q] = ident
	m.orgs[org] = append(m.orgs[org], id)
	sort.Strings(m.orgs[org])
	return ident
}

// Lookup returns a registered identity or nil.
func (m *MSP) Lookup(org, id string) *Identity {
	return m.identities[qualify(org, id)]
}

// Verify checks that sig is a valid signature by org/id over digest.
func (m *MSP) Verify(org, id string, digest, sig []byte) bool {
	ident := m.Lookup(org, id)
	if ident == nil {
		return false
	}
	var sum [sha256.Size]byte
	ident.mac(&sum, digest)
	return hmac.Equal(sum[:], sig)
}

// Orgs lists all registered organizations in sorted order.
func (m *MSP) Orgs() []string {
	out := make([]string, 0, len(m.orgs))
	for o := range m.orgs {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Members lists the identity IDs registered under org.
func (m *MSP) Members(org string) []string {
	return append([]string(nil), m.orgs[org]...)
}

// OrgName formats the canonical organization name used across the
// simulation ("Org0", "Org1", ...).
func OrgName(i int) string { return fmt.Sprintf("Org%d", i) }

// PeerName formats the canonical peer name within an org.
func PeerName(org string, i int) string { return fmt.Sprintf("%s-peer%d", org, i) }

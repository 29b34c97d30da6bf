package dv

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cctest"
	"repro/internal/dist"
	"repro/internal/workload"
)

// The reference for the hand codecs is encoding/json, which the
// chaincode called directly before them.

// randDocs draws one document of each type. Tame ones have the shape
// the workload writes; the rest take strings and counts from cctest.
func randDocs(rng *rand.Rand) (docs []interface{}, tame bool) {
	tame = rng.Intn(2) == 0
	str, n := cctest.JSONString, cctest.JSONInt(rng)
	if tame {
		str = func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(1000)) }
		n = rng.Intn(1e6)
	}
	party := ""
	if rng.Intn(2) == 0 {
		party = str(rng)
	}
	return []interface{}{
		&voterDoc{VoterID: str(rng), Voted: rng.Intn(2) == 0, Party: party},
		&partyDoc{PartyID: str(rng), Votes: n},
		&electionDoc{Open: rng.Intn(2) == 0},
	}, tame
}

// fresh returns a zero document of doc's type.
func fresh(doc interface{}) interface{} {
	switch doc.(type) {
	case *voterDoc:
		return &voterDoc{}
	case *partyDoc:
		return &partyDoc{}
	}
	return &electionDoc{}
}

// clone copies a document.
func clone(doc interface{}) interface{} {
	switch d := doc.(type) {
	case *voterDoc:
		c := *d
		return &c
	case *partyDoc:
		c := *d
		return &c
	}
	c := *doc.(*electionDoc)
	return &c
}

// TestCodecsMatchEncodingJSON is a property test of the three codecs
// against encoding/json over random documents: the encoder must write
// json.Marshal's bytes, and decoding json.Marshal's output must leave
// what json.Unmarshal leaves, into a zero document and into one that
// already holds other values (a voter without a party keeps the old
// one). Tame documents must take the hand path both ways.
func TestCodecsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		docs, tame := randDocs(rng)
		olds, _ := randDocs(rng)
		for j, doc := range docs {
			if err := cctest.CheckEncode(doc); err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := cctest.CheckDecode(raw, fresh(doc), fresh(doc)); err != nil {
				t.Fatal(err)
			}
			if err := cctest.CheckDecode(raw, clone(olds[j]), clone(olds[j])); err != nil {
				t.Fatal(err)
			}
			type codec interface {
				AppendJSON([]byte) ([]byte, bool)
				DecodeJSON([]byte) bool
			}
			if _, ok := doc.(codec).AppendJSON(nil); tame && (!ok || !fresh(doc).(codec).DecodeJSON(raw)) {
				t.Fatalf("tame document %s left the hand codecs", raw)
			}
		}
	}
}

// TestDecoderFallbacks feeds the decoders inputs outside the canonical
// shape, which must reach json.Unmarshal and keep its exact meaning,
// errors included, and every input within one byte of a canonical
// encoding.
func TestDecoderFallbacks(t *testing.T) {
	inputs := []string{
		` {"voterId":"1","voted":true}`,
		`{"voterId":"1","voted":true,"party":""}`,
		`{"voted":true,"voterId":"1"}`,
		`{"voterId":"1","voterId":"2","voted":true}`,
		`{"voterId":"1","voted":null,"party":null}`,
		`{"voterId":"1","voted":1}`,
		`{"voterId":"1"}`,
		`{"partyId":"3","votes":1.0}`,
		`{"partyId":"3","votes":007}`,
		`{"partyId":"3","votes":-0}`,
		`{"partyId":"3","votes":12345678901234567890}`,
		`{"partyId":"3","votes":2,"votes":3}`,
		`{"partyId":"3","Votes":2}`,
		`{"open":true }`,
		`{"open":"true"}`,
		`{"open":true,"open":false}`,
		`null`, ``, `{`, `{"open":tru`,
	}
	olds := []interface{}{
		&voterDoc{VoterID: "old", Voted: true, Party: "old"},
		&partyDoc{PartyID: "old", Votes: 9},
		&electionDoc{Open: true},
	}
	check := func(raw []byte) {
		t.Helper()
		for _, old := range olds {
			if err := cctest.CheckDecode(raw, fresh(old), fresh(old)); err != nil {
				t.Error(err)
			}
			if err := cctest.CheckDecode(raw, clone(old), clone(old)); err != nil {
				t.Error(err)
			}
		}
	}
	for _, in := range inputs {
		check([]byte(in))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		docs, _ := randDocs(rng)
		for _, doc := range docs {
			raw, _ := json.Marshal(doc)
			for _, m := range cctest.Mutations(raw) {
				check(m)
			}
		}
	}
}

// TestKeysAndArgsMatchFmt pins the key builders and the workload's
// arguments to the fmt calls they replace.
func TestKeysAndArgsMatchFmt(t *testing.T) {
	for _, i := range []int{0, 1, 7, 11, 42, 99, 100, 999, 1000, 12345, -1, -42, -1000} {
		if got, want := VoterKey(i), fmt.Sprintf("voter_%04d", i); got != want {
			t.Errorf("VoterKey(%d) = %q, want %q", i, got, want)
		}
		if got, want := PartyKey(i), fmt.Sprintf("party_%02d", i); got != want {
			t.Errorf("PartyKey(%d) = %q, want %q", i, got, want)
		}
	}
	// The workload against its fmt version, kept here as the reference.
	ref := func(skew float64) workload.Generator {
		z := dist.NewZipfian(Voters, skew)
		return workload.Func(func(rng *rand.Rand) workload.Invocation {
			switch rng.Intn(4) {
			case 0:
				return workload.Invocation{Chaincode: Name, Function: "qryParties"}
			case 1:
				return workload.Invocation{Chaincode: Name, Function: "seeResults"}
			default:
				voter := fmt.Sprintf("%04d", z.Next(rng))
				party := fmt.Sprintf("%02d", rng.Intn(Parties))
				return workload.Invocation{Chaincode: Name, Function: "vote", Args: []string{voter, party}}
			}
		})
	}
	got, want := NewWorkload(1), ref(1)
	grng, wrng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if g, w := got.Next(grng), want.Next(wrng); !reflect.DeepEqual(g, w) {
			t.Fatalf("draw %d: %+v, fmt version gives %+v", i, g, w)
		}
	}
}

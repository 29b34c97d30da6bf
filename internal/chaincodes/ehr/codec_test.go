package ehr

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/cctest"
	"repro/internal/chaincode"
	"repro/internal/dist"
	"repro/internal/workload"
)

// The reference for the hand codecs is encoding/json, which the
// chaincode called directly before them: json.Marshal in putJSON and
// json.Unmarshal in getJSON.

// randProfile draws a profile. A tame one has the shape the workload
// writes (a numeric patient id, actor keys, a modest count); the rest
// take strings, keys and counts from cctest, which json.Marshal may
// have to escape and the hand decoder may have to refuse.
func randProfile(rng *rand.Rand) (p *profile, tame bool) {
	tame = rng.Intn(2) == 0
	key, id, n := cctest.JSONString, cctest.JSONString(rng), cctest.JSONInt(rng)
	if tame {
		key = func(rng *rand.Rand) string { return actorName(rng.Intn(Actors)) }
		id, n = strconv.Itoa(rng.Intn(1000)), rng.Intn(1e6)
	}
	return &profile{PatientID: id, Access: cctest.JSONBoolMap(rng, key), Updates: n}, tame
}

func (p *profile) clone() *profile {
	c := *p
	if p.Access != nil {
		c.Access = map[string]bool{}
		for k, v := range p.Access {
			c.Access[k] = v
		}
	}
	return &c
}

func (p *profile) record() *record {
	c := p.clone()
	return &record{PatientID: c.PatientID, Access: c.Access, Entries: c.Updates}
}

// TestCodecsMatchEncodingJSON is a property test of both codecs
// against encoding/json over random documents: the encoder must write
// json.Marshal's bytes, and decoding json.Marshal's output must leave
// what json.Unmarshal leaves, into a zero document and into one that
// already holds other values. Tame documents must take the hand path
// both ways.
func TestCodecsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fast := 0
	for i := 0; i < 1500; i++ {
		p, tame := randProfile(rng)
		old, _ := randProfile(rng)
		for _, doc := range []interface{}{p, p.record()} {
			if err := cctest.CheckEncode(doc); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range [][2]interface{}{
			{&profile{}, &profile{}},
			{old.clone(), old.clone()},
			{&record{}, &record{}},
			{old.record(), old.record()},
		} {
			if err := cctest.CheckDecode(raw, c[0], c[1]); err != nil {
				t.Fatal(err)
			}
		}
		recRaw, _ := json.Marshal(p.record())
		if err := cctest.CheckDecode(recRaw, old.record(), old.record()); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.AppendJSON(nil); tame {
			if !ok || !new(profile).DecodeJSON(raw) || !new(record).DecodeJSON(recRaw) {
				t.Fatalf("tame document %s left the hand codecs", raw)
			}
			fast++
		}
	}
	if fast < 500 {
		t.Fatalf("only %d tame documents", fast)
	}
}

// TestDecoderFallbacks feeds the decoders inputs outside the canonical
// shape, which must reach json.Unmarshal and keep its exact meaning,
// errors included, and every input within one byte of a canonical
// encoding.
func TestDecoderFallbacks(t *testing.T) {
	inputs := []string{
		` {"patientId":"1","access":{},"updates":2}`,       // leading whitespace
		`{"patientId":"1","access":{},"updates":2}` + "\n", // trailing whitespace
		`{"patientId": "1", "access": {}, "updates": 2}`,   // spaces
		`null`, // null document
		`{"patientId":null,"access":null,"updates":null}`,             // null fields
		`{"access":{},"patientId":"1","updates":2}`,                   // reordered
		`{"patientId":"1","patientId":"2","access":{},"updates":2}`,   // duplicate field
		`{"patientId":"1","access":{"b":true,"a":true},"updates":2}`,  // unsorted keys
		`{"patientId":"1","access":{"a":true,"a":false},"updates":2}`, // duplicate key
		`{"patientId":"1","access":{},"updates":1.0}`,                 // float
		`{"patientId":"1","access":{},"updates":007}`,                 // leading zeros
		`{"patientId":"1","access":{},"updates":1e2}`,                 // exponent
		`{"patientId":"1","access":{},"updates":-0}`,                  // negative zero
		`{"patientId":"1","access":{},"updates":12345678901234567890}`,
		`{"patientId":"1","access":{},"updates":"3"}`,
		`{"patientId":"1","access":{"a":1},"updates":2}`,
		`{"patientId":"1","access":[],"updates":2}`,
		`{"patientId":"a<b","access":{"\n":true},"updates":2}`,   // escapes
		`{"PatientID":"1","ACCESS":{},"Updates":2}`,              // case-folded names
		`{"patientId":"1","access":{},"updates":2,"extra":true}`, // unknown field
		`{"patientId":"1","access":{},"entries":2}`,              // the other document
		`{"patientId":"1","access":{}}`,                          // missing field
		`{"patientId":"1","access":{},"updates":2}}`,             // trailing garbage
		`{"patientId":"1","access":{"a":true},"updates":2`,       // truncated
		``, `{`, `[]`, `"x"`, `tru`,
	}
	prefilled := &profile{PatientID: "old", Access: map[string]bool{"z": true}, Updates: 9}
	check := func(raw []byte) {
		t.Helper()
		for _, c := range [][2]interface{}{
			{&profile{}, &profile{}},
			{prefilled.clone(), prefilled.clone()},
			{&record{}, &record{}},
			{prefilled.record(), prefilled.record()},
		} {
			if err := cctest.CheckDecode(raw, c[0], c[1]); err != nil {
				t.Error(err)
			}
		}
	}
	for _, in := range inputs {
		check([]byte(in))
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		p, _ := randProfile(rng)
		for k := range p.Access {
			if len(p.Access) > 3 { // short documents keep the mutations few
				delete(p.Access, k)
			}
		}
		raw, _ := json.Marshal(p)
		recRaw, _ := json.Marshal(p.record())
		for _, m := range append(cctest.Mutations(raw), cctest.Mutations(recRaw)...) {
			check(m)
		}
	}
}

// TestKeysAndArgsMatchFmt pins the key builders, the workload and the
// argument parser to the fmt calls they replace, for in-range, negative
// and four-digit indices and for the lenient Sscanf inputs.
func TestKeysAndArgsMatchFmt(t *testing.T) {
	for _, i := range []int{0, 1, 7, 42, 99, 100, 999, 1000, 12345, -1, -42, -1000} {
		if got, want := ProfileKey(i), fmt.Sprintf("profile_%03d", i); got != want {
			t.Errorf("ProfileKey(%d) = %q, want %q", i, got, want)
		}
		if got, want := RecordKey(i), fmt.Sprintf("ehr_%03d", i); got != want {
			t.Errorf("RecordKey(%d) = %q, want %q", i, got, want)
		}
		if got, want := actorName(i), fmt.Sprintf("actor%02d", i); got != want {
			t.Errorf("actorName(%d) = %q, want %q", i, got, want)
		}
	}
	// The workload against its fmt version, kept here as the reference.
	ref := func(skew float64) workload.Generator {
		z := dist.NewZipfian(Patients, skew)
		fns := []string{
			"addEhr", "grantProfileAccess", "readProfile", "revokeProfileAccess",
			"viewPartialProfile", "revokeEhrAccess", "viewEHR", "grantEhrAccess",
			"queryEHR",
		}
		return workload.Func(func(rng *rand.Rand) workload.Invocation {
			fn := fns[rng.Intn(len(fns))]
			args := []string{fmt.Sprint(z.Next(rng))}
			switch fn {
			case "grantProfileAccess", "revokeProfileAccess", "grantEhrAccess", "revokeEhrAccess":
				args = append(args, fmt.Sprintf("actor%02d", rng.Intn(Actors)))
			}
			return workload.Invocation{Chaincode: Name, Function: fn, Args: args}
		})
	}
	got, want := NewWorkload(1), ref(1)
	grng, wrng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if g, w := got.Next(grng), want.Next(wrng); !reflect.DeepEqual(g, w) {
			t.Fatalf("draw %d: %+v, fmt version gives %+v", i, g, w)
		}
	}
	refPatientArg := func(args []string) (int, error) {
		var p int
		if _, err := fmt.Sscanf(args[0], "%d", &p); err != nil || p < 0 {
			return 0, fmt.Errorf("ehr: bad patient %q", args[0])
		}
		return p % Patients, nil
	}
	for _, a := range []string{"0", "7", "42", "007", "99", "100", "123456789", "1234567890",
		"12abc", " 12", "+12", "0x1f", "-3", "", "abc", "12345678901234567890"} {
		got, gerr := patientArg([]string{a})
		want, werr := refPatientArg([]string{a})
		if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Errorf("patientArg(%q) = %d, %v; want %d, %v", a, got, gerr, want, werr)
		}
	}
}

// benchProfile is a hot profile as the EHR workload leaves it: about
// half of the actors granted, a few hundred updates.
func benchProfile() *profile {
	p := &profile{PatientID: "7", Access: map[string]bool{}, Updates: 412}
	for a := 0; a < Actors; a += 2 {
		p.Access[actorName(a)] = true
	}
	return p
}

func benchmarkEncode(b *testing.B, doc interface{}) {
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := chaincode.EncodeDoc(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchmarkDecode(b *testing.B, doc interface{}, fresh func() interface{}) {
	raw, err := json.Marshal(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := chaincode.DecodeDoc(raw, fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(raw, fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkProfileEncode(b *testing.B) { benchmarkEncode(b, benchProfile()) }

func BenchmarkProfileDecode(b *testing.B) {
	benchmarkDecode(b, benchProfile(), func() interface{} { return &profile{} })
}

func BenchmarkRecordEncode(b *testing.B) { benchmarkEncode(b, benchProfile().record()) }

func BenchmarkRecordDecode(b *testing.B) {
	benchmarkDecode(b, benchProfile().record(), func() interface{} { return &record{} })
}

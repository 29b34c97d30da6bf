// Package cctest provides helpers for chaincode unit tests: a
// one-shot committer that applies a captured read/write set to a
// state database, an op-count checker against Table 2 rows, and
// checks of hand-written document codecs against encoding/json.
package cctest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"repro/internal/chaincode"
	"repro/internal/ledger"
	"repro/internal/statedb"
	"repro/internal/workload"
)

// Commit applies the stub's write set to db at the given block height,
// as the validation phase would for a valid transaction.
func Commit(db statedb.VersionedDB, stub *chaincode.Stub, block uint64) error {
	batch := &statedb.UpdateBatch{}
	for i, w := range stub.RWSet().Writes {
		h := ledger.Height{BlockNum: block, TxNum: uint64(i)}
		if w.IsDelete {
			batch.Delete(w.Key, h)
		} else {
			batch.Put(w.Key, w.Value, h)
		}
	}
	return db.ApplyUpdates(batch, block)
}

// InitState builds a fresh database seeded by the chaincode's Init.
func InitState(cc chaincode.Chaincode, kind statedb.Kind) (statedb.VersionedDB, error) {
	db := statedb.New(kind, 1)
	stub := chaincode.NewStub(db)
	if err := cc.Init(stub); err != nil {
		return nil, err
	}
	if err := Commit(db, stub, 0); err != nil {
		return nil, err
	}
	return db, nil
}

// Invoke runs one function on a fresh stub and returns the stub.
func Invoke(cc chaincode.Chaincode, db statedb.VersionedDB, fn string, args ...string) (*chaincode.Stub, error) {
	stub := chaincode.NewStub(db)
	if err := cc.Invoke(stub, fn, args); err != nil {
		return nil, err
	}
	return stub, nil
}

// CheckOps verifies that a stub's operation trace matches a Table 2
// row: the declared number of reads, writes and range reads.
func CheckOps(info workload.FunctionInfo, stub *chaincode.Stub) error {
	tr := stub.Trace()
	if tr.Gets != info.Reads {
		return fmt.Errorf("%s: %d reads, table says %d", info.Name, tr.Gets, info.Reads)
	}
	if tr.Puts+tr.Deletes != info.Writes {
		return fmt.Errorf("%s: %d writes, table says %d", info.Name, tr.Puts+tr.Deletes, info.Writes)
	}
	if tr.Ranges+tr.Queries != info.RangeReads {
		return fmt.Errorf("%s: %d range reads, table says %d", info.Name, tr.Ranges+tr.Queries, info.RangeReads)
	}
	return nil
}

// jsonPieces are the string fragments JSONString mixes in: what
// encoding/json escapes or replaces (<, >, &, quotes, backslashes,
// control characters, invalid UTF-8, U+2028 and U+2029), multi-byte
// runes, and plain bytes.
var jsonPieces = []string{
	"<", ">", "&", `"`, `\`, "\x00", "\n", "\x1f", "\x7f", "\xff", "\xc3",
	"\u00e9", "\u2028", "\u2029", "\u65e5", "a", "Z", "0", " ", "~", "actor07",
}

// JSONString draws a string for document codec tests. Three in four are
// plain printable ASCII, which a hand encoder writes itself; the rest
// mix in the pieces that encoding/json escapes or replaces.
func JSONString(rng *rand.Rand) string {
	var b []byte
	n := rng.Intn(10)
	if rng.Intn(4) > 0 {
		for i := 0; i < n; i++ {
			b = append(b, byte(0x20+rng.Intn(0x7f-0x20)))
		}
		return string(b)
	}
	for i := 0; i <= n; i++ {
		b = append(b, jsonPieces[rng.Intn(len(jsonPieces))]...)
	}
	return string(b)
}

// JSONInt draws a count for document codec tests: mostly small, with
// negatives, the int64 extremes and the 18-to-19-digit boundary.
func JSONInt(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return []int{math.MaxInt64, math.MinInt64, 999999999999999999, 1000000000000000000,
			-999999999999999999, -1000000000000000000}[rng.Intn(6)]
	case 1:
		return -rng.Intn(1000)
	case 2:
		return int(rng.Int63())
	default:
		return rng.Intn(1000)
	}
}

// JSONBoolMap draws a string-to-bool map: nil, empty, or up to 80
// draws of key (repeats collapse).
func JSONBoolMap(rng *rand.Rand, key func(*rand.Rand) string) map[string]bool {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return map[string]bool{}
	}
	m := map[string]bool{}
	for n := rng.Intn(81); n > 0; n-- {
		m[key(rng)] = rng.Intn(2) == 0
	}
	return m
}

// CheckEncode reports whether chaincode.EncodeDoc(doc) differs from
// json.Marshal(doc) in its bytes or its error.
func CheckEncode(doc any) error {
	got, gerr := chaincode.EncodeDoc(doc)
	want, werr := json.Marshal(doc)
	if !bytes.Equal(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("EncodeDoc(%#v) = %q, %v; json.Marshal = %q, %v", doc, got, gerr, want, werr)
	}
	return nil
}

// CheckDecode reports whether chaincode.DecodeDoc(raw, got) and
// json.Unmarshal(raw, want) differ in the value they leave behind or
// the error they return. got and want must point to equal documents;
// they need not be zero.
func CheckDecode(raw []byte, got, want any) error {
	gerr := chaincode.DecodeDoc(raw, got)
	werr := json.Unmarshal(raw, want)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("DecodeDoc(%q) = %+v, %v; json.Unmarshal = %+v, %v", raw, got, gerr, want, werr)
	}
	return nil
}

// Mutations returns inputs near a canonical encoding raw, for decoder
// fallback tests: every proper prefix, and raw with one byte replaced
// or inserted at each position, drawn from bytes that change the JSON
// structure, its numbers or its whitespace.
func Mutations(raw []byte) [][]byte {
	const alphabet = " 0-1.e\"\\,:{}nt"
	var out [][]byte
	for i := 0; i < len(raw); i++ {
		out = append(out, raw[:i:i])
		for j := 0; j < len(alphabet); j++ {
			c := alphabet[j]
			replaced := append(append(append([]byte{}, raw[:i]...), c), raw[i+1:]...)
			inserted := append(append(append([]byte{}, raw[:i]...), c), raw[i:]...)
			out = append(out, replaced, inserted)
		}
	}
	return out
}

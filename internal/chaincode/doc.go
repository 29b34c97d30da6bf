package chaincode

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// World-state documents are JSON, as in the paper's Node.js and Go
// chaincodes. A document type may carry a hand-written codec for its
// canonical encoding; any document, and any input, that the hand codec
// does not cover goes through encoding/json, so the bytes written and
// the values read are always exactly what encoding/json gives.

// JSONAppender is implemented by documents with a hand-written
// encoder. AppendJSON appends exactly what json.Marshal would produce
// to dst. It reports false when a string needs escaping, and the
// caller then discards the output and calls json.Marshal instead.
type JSONAppender interface {
	AppendJSON(dst []byte) ([]byte, bool)
}

// JSONDecoder is implemented by documents with a hand-written decoder.
// DecodeJSON reports false, leaving the document untouched, when raw is
// not in the canonical shape the hand encoder writes; the caller then
// calls json.Unmarshal instead. On success the document holds exactly
// what json.Unmarshal would have left in it.
type JSONDecoder interface {
	DecodeJSON(raw []byte) bool
}

// EncodeDoc encodes a world-state document. A hand encoder gets a nil
// dst and reserves about the encoded size itself.
func EncodeDoc(v any) ([]byte, error) {
	if a, ok := v.(JSONAppender); ok {
		if raw, ok := a.AppendJSON(nil); ok {
			return raw, nil
		}
	}
	return json.Marshal(v)
}

// DecodeDoc decodes a world-state document into out.
func DecodeDoc(raw []byte, out any) error {
	if d, ok := out.(JSONDecoder); ok && d.DecodeJSON(raw) {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// GetDoc reads key and decodes it into out. An absent key reports
// found false and leaves out untouched: chaincodes treat an absent
// entity as a zeroed one (upsert semantics).
func GetDoc(stub *Stub, key string, out any) (found bool, err error) {
	raw, err := stub.GetState(key)
	if err != nil || raw == nil {
		return false, err
	}
	return true, DecodeDoc(raw, out)
}

// PutDoc encodes v and buffers it as the write of key.
func PutDoc(stub *Stub, key string, v any) error {
	raw, err := EncodeDoc(v)
	if err != nil {
		return err
	}
	return stub.PutState(key, raw)
}

// plain reports whether json.Marshal writes b unescaped inside a
// string: printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
func plain(b byte) bool {
	return b >= 0x20 && b <= 0x7e && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendString appends s as a JSON string. It reports false when s
// holds a byte that is not plain, which json.Marshal would escape.
func AppendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendBoolMap appends m as json.Marshal does: null when nil,
// otherwise an object with its keys in sorted order.
func AppendBoolMap(dst []byte, m map[string]bool) ([]byte, bool) {
	if m == nil {
		return append(dst, "null"...), true
	}
	var arr [64]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = AppendString(dst, k); !ok {
			return dst, false
		}
		dst = append(dst, ':')
		dst = strconv.AppendBool(dst, m[k])
	}
	return append(dst, '}'), true
}

// DocReader scans the canonical encoding that a hand-written encoder
// writes: fields in a fixed order, no whitespace, plain strings,
// true/false, and integers of at most 18 digits without leading zeros.
// After the first mismatch every method is a no-op returning a zero
// value, and Done reports false.
type DocReader struct {
	buf []byte
	bad bool
}

// NewDocReader returns a reader over raw.
func NewDocReader(raw []byte) DocReader { return DocReader{buf: raw} }

// Lit consumes the literal s.
func (r *DocReader) Lit(s string) {
	if !r.Has(s) {
		r.bad = true
	}
}

// Has consumes the literal s if the input continues with it and
// reports whether it did; it reads optional (omitempty) fields.
func (r *DocReader) Has(s string) bool {
	if r.bad || len(r.buf) < len(s) || string(r.buf[:len(s)]) != s {
		return false
	}
	r.buf = r.buf[len(s):]
	return true
}

// Str consumes a string made only of plain bytes.
func (r *DocReader) Str() string {
	if r.bad || len(r.buf) == 0 || r.buf[0] != '"' {
		r.bad = true
		return ""
	}
	for i := 1; i < len(r.buf); i++ {
		switch c := r.buf[i]; {
		case c == '"':
			s := string(r.buf[1:i])
			r.buf = r.buf[i+1:]
			return s
		case !plain(c):
			r.bad = true
			return ""
		}
	}
	r.bad = true
	return ""
}

// Int consumes an integer of at most 18 digits, so it cannot overflow
// an int64, with no leading zeros.
func (r *DocReader) Int() int {
	if r.bad {
		return 0
	}
	b := r.buf
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n, i := 0, 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	if i == 0 || i > 18 || (b[0] == '0' && i > 1) {
		r.bad = true
		return 0
	}
	r.buf = b[i:]
	if neg {
		return -n
	}
	return n
}

// Bool consumes true or false.
func (r *DocReader) Bool() bool {
	if r.Has("true") {
		return true
	}
	r.Lit("false")
	return false
}

// BoolMap consumes null or an object of plain keys mapped to true or
// false. A repeated key keeps its last value, as in json.Unmarshal, so
// key order does not matter. The result is a fresh map, or nil for
// null; merge it into the document with MergeBoolMap once Done
// succeeds.
func (r *DocReader) BoolMap() map[string]bool {
	if r.Has("null") {
		return nil
	}
	r.Lit("{")
	m := map[string]bool{}
	if r.Has("}") {
		return m
	}
	for !r.bad {
		k := r.Str()
		r.Lit(":")
		m[k] = r.Bool()
		if !r.Has(",") {
			r.Lit("}")
			break
		}
	}
	return m
}

// Done reports whether the whole input matched.
func (r *DocReader) Done() bool { return !r.bad && len(r.buf) == 0 }

// MergeBoolMap returns what json.Unmarshal leaves in a map field that
// held into when it decodes an object or null that BoolMap read as m:
// nil for null, otherwise into with m's entries added (a fresh map
// when into is nil).
func MergeBoolMap(into, m map[string]bool) map[string]bool {
	if m == nil || into == nil {
		return m
	}
	for k, v := range m {
		into[k] = v
	}
	return into
}

// PaddedKey returns fmt.Sprintf(prefix+"%0*d", width, n) without fmt
// for n >= 0: prefix, then n in decimal zero-padded to width digits.
func PaddedKey(prefix string, n, width int) string {
	if n < 0 {
		return prefix + fmt.Sprintf("%0*d", width, n)
	}
	var arr [48]byte
	b := append(arr[:0], prefix...)
	for q := n; q >= 10 && width > 1; q /= 10 {
		width-- // each digit of n past the first replaces a pad zero
	}
	for ; width > 1; width-- {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(n), 10))
}

// ScanInt parses an integer argument exactly as fmt.Sscanf(s, "%d",
// &n) does, which is lenient: "12abc" and " 12" give 12 and "0x1f"
// gives 0, all without error. Arguments of one to nine ASCII digits,
// the only ones the workloads produce, skip the fmt scanner.
func ScanInt(s string) (int, error) {
	if len(s) == 0 || len(s) > 9 {
		return scanIntFmt(s)
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return scanIntFmt(s)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func scanIntFmt(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}

package chaincode

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestPaddedKeyMatchesFmt pins PaddedKey to the fmt.Sprintf call it
// replaces, for in-range, wide, negative and extreme values.
func TestPaddedKeyMatchesFmt(t *testing.T) {
	ns := []int{0, 1, 7, 9, 10, 42, 99, 100, 999, 1000, 12345, 999999, 1000000,
		-1, -7, -42, -1000, math.MaxInt64, math.MinInt64}
	for width := 0; width <= 8; width++ {
		for _, n := range ns {
			want := fmt.Sprintf("k_%0*d", width, n)
			if got := PaddedKey("k_", n, width); got != want {
				t.Errorf("PaddedKey(k_, %d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
	// A prefix longer than the stack buffer, and an empty one.
	long := "a-very-long-world-state-key-prefix-that-outgrows-the-buffer_"
	if got, want := PaddedKey(long, 5, 3), long+"005"; got != want {
		t.Errorf("long prefix: %q, want %q", got, want)
	}
	if got := PaddedKey("", 42, 4); got != "0042" {
		t.Errorf("empty prefix: %q, want 0042", got)
	}
}

// refScanInt is the argument parser ScanInt replaces.
func refScanInt(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}

// TestScanIntMatchesSscanf pins ScanInt to fmt.Sscanf("%d"), whose
// leniency (trailing junk, leading blanks, signs, base prefixes) the
// chaincodes' argument validation has always had.
func TestScanIntMatchesSscanf(t *testing.T) {
	inputs := []string{
		"0", "7", "42", "007", "99", "100", "123456789", "999999999", "1234567890",
		"12abc", " 12", "+12", "0x1f", "-3", "-0", "", " ", "abc", "1 2", "12 ",
		"12345678901234567890", "-12345678901234567890", "9223372036854775807",
		"9223372036854775808", "1_000", "0b101", "0o17", "1e3", "1.5", "٣", "12\n",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 1+rng.Intn(12))
		for j := range b {
			b[j] = "0123456789 +-xa"[rng.Intn(15)]
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		got, gerr := ScanInt(s)
		want, werr := refScanInt(s)
		if (gerr == nil) != (werr == nil) || (werr == nil && got != want) {
			t.Errorf("ScanInt(%q) = %d, %v; Sscanf gives %d, %v", s, got, gerr, want, werr)
		}
	}
}

// TestAppendersMatchEncodingJSON pins the string and map appenders to
// json.Marshal wherever they report success. They accept exactly the
// printable ASCII bytes json.Marshal writes unescaped, so they refuse
// every string it would escape (and DEL, which it would not).
func TestAppendersMatchEncodingJSON(t *testing.T) {
	for c := 0; c < 256; c++ {
		s := "a" + string([]byte{byte(c)}) + "z"
		want, _ := json.Marshal(s)
		got, ok := AppendString(nil, s)
		if plain := c >= 0x20 && c <= 0x7e && !strings.ContainsRune(`"\<>&`, rune(c)); ok != plain {
			t.Errorf("AppendString(%q) ok = %v, want %v", s, ok, plain)
		}
		if ok && string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		var m map[string]bool
		if i%10 != 0 {
			m = map[string]bool{}
			for n := rng.Intn(100); len(m) < n; {
				m["k"+strconv.Itoa(rng.Intn(1000))] = rng.Intn(2) == 0
			}
		}
		want, _ := json.Marshal(m)
		got, ok := AppendBoolMap([]byte("x"), m)
		if !ok || string(got) != "x"+string(want) {
			t.Fatalf("AppendBoolMap(%v) = %s, %v; want x%s", m, got, ok, want)
		}
	}
	if _, ok := AppendBoolMap(nil, map[string]bool{"ok": true, "a<b": true}); ok {
		t.Error("AppendBoolMap accepted a key that json.Marshal escapes")
	}
}

// TestDocReaderIntBounds checks the integer shapes the reader accepts:
// at most 18 digits, no leading zeros, an optional minus sign.
func TestDocReaderIntBounds(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"-0", 0, true},
		{"7", 7, true},
		{"-42", -42, true},
		{"999999999999999999", 999999999999999999, true},
		{"-999999999999999999", -999999999999999999, true},
		{"1000000000000000000", 0, false},
		{"007", 0, false},
		{"-", 0, false},
		{"", 0, false},
		{"+1", 0, false},
		{"x", 0, false},
	}
	for _, c := range cases {
		r := NewDocReader([]byte(c.in))
		got := r.Int()
		if r.Done() != c.ok || (c.ok && got != c.want) {
			t.Errorf("Int(%q) = %d, done %v; want %d, %v", c.in, got, r.Done(), c.want, c.ok)
		}
	}
}

// TestMergeBoolMapFollowsUnmarshal compares MergeBoolMap with what
// json.Unmarshal does to a map field that already holds entries.
func TestMergeBoolMapFollowsUnmarshal(t *testing.T) {
	type doc struct {
		M map[string]bool `json:"m"`
	}
	for _, raw := range []string{`{"m":null}`, `{"m":{}}`, `{"m":{"a":false,"c":true}}`} {
		for _, into := range []map[string]bool{nil, {}, {"a": true, "b": true}} {
			want := doc{M: clone(into)}
			if err := json.Unmarshal([]byte(raw), &want); err != nil {
				t.Fatal(err)
			}
			r := NewDocReader([]byte(raw))
			r.Lit(`{"m":`)
			m := r.BoolMap()
			r.Lit("}")
			got := MergeBoolMap(clone(into), m)
			if !r.Done() || fmt.Sprint(got) != fmt.Sprint(want.M) || (got == nil) != (want.M == nil) {
				t.Errorf("%s into %v: got %v, json.Unmarshal gives %v", raw, into, got, want.M)
			}
		}
	}
}

func clone(m map[string]bool) map[string]bool {
	if m == nil {
		return nil
	}
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

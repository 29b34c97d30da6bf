package drm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cctest"
	"repro/internal/statedb"
)

func TestInitSeedsCatalog(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != Artworks+Holders {
		t.Fatalf("seeded %d keys, want %d", db.Len(), Artworks+Holders)
	}
}

func TestTable2OpCounts(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	argsFor := map[string][]string{
		"create":       {"5", "5"},
		"play":         {"9", "9"},
		"queryRghts":   {"3", "3"},
		"viewMetaData": {"2"},
		"calcRevenue":  {IPI(4)},
	}
	for _, info := range Functions() {
		stub, err := cctest.Invoke(New(), db, info.Name, argsFor[info.Name]...)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := cctest.CheckOps(info, stub); err != nil {
			t.Error(err)
		}
	}
}

func TestPlayIncrementsCount(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		stub, err := cctest.Invoke(cc, db, "play", "11", "11")
		if err != nil {
			t.Fatal(err)
		}
		if err := cctest.Commit(db, stub, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var a struct {
		Plays int `json:"plays"`
	}
	if err := json.Unmarshal(db.Get(ArtKey(11)).Value, &a); err != nil {
		t.Fatal(err)
	}
	if a.Plays != 4 {
		t.Fatalf("plays = %d, want 4", a.Plays)
	}
}

func TestCalcRevenueRichQueryMatchesOwner(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "calcRevenue", IPI(7))
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || !rqs[0].Unchecked {
		t.Fatal("calcRevenue on CouchDB should be an unchecked rich query")
	}
	// Holder 7 owns artworks 7 (200 artworks, 200 holders, owner = a % Holders).
	if len(rqs[0].Reads) != 1 {
		t.Fatalf("rich query matched %d artworks, want 1", len(rqs[0].Reads))
	}
}

func TestCalcRevenueFallbackOnLevelDB(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(New(), db, "calcRevenue", IPI(7))
	if err != nil {
		t.Fatal(err)
	}
	rqs := stub.RWSet().RangeQueries
	if len(rqs) != 1 || rqs[0].Unchecked {
		t.Fatal("calcRevenue on LevelDB should be a checked range scan")
	}
	if len(rqs[0].Reads) != Artworks {
		t.Fatalf("fallback scanned %d artworks, want %d", len(rqs[0].Reads), Artworks)
	}
}

func TestCreateUpdatesHolder(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	stub, err := cctest.Invoke(cc, db, "create", "42", "13")
	if err != nil {
		t.Fatal(err)
	}
	if err := cctest.Commit(db, stub, 1); err != nil {
		t.Fatal(err)
	}
	var h struct {
		Works int `json:"works"`
	}
	if err := json.Unmarshal(db.Get(HolderKey(13)).Value, &h); err != nil {
		t.Fatal(err)
	}
	if h.Works != 1 {
		t.Fatalf("works = %d, want 1", h.Works)
	}
}

func TestArgumentValidation(t *testing.T) {
	db, err := cctest.InitState(New(), statedb.LevelDB)
	if err != nil {
		t.Fatal(err)
	}
	for fn, args := range map[string][]string{
		"create":       {"1"},
		"play":         {},
		"queryRghts":   {"bad", "1"},
		"viewMetaData": {},
		"calcRevenue":  {},
		"nope":         {},
	} {
		if _, err := cctest.Invoke(New(), db, fn, args...); err == nil {
			t.Errorf("%s(%v) accepted", fn, args)
		}
	}
}

func TestWorkloadProducesValidInvocations(t *testing.T) {
	cc := New()
	db, err := cctest.InitState(cc, statedb.CouchDB)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewWorkload(1)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		inv := gen.Next(rng)
		if _, err := cctest.Invoke(cc, db, inv.Function, inv.Args...); err != nil {
			t.Fatalf("%s(%v): %v", inv.Function, inv.Args, err)
		}
	}
}

// TestKeysAndArgsMatchFmt pins the key builders, the argument parsers
// and the workload's arguments to the fmt calls they replace: keys for
// in-range, negative and wide indices, and arguments that exercise
// Sscanf's leniency.
func TestKeysAndArgsMatchFmt(t *testing.T) {
	for _, i := range []int{0, 1, 7, 42, 99, 100, 999, 1000, 123456789, -1, -42, -1000} {
		for _, c := range []struct{ got, want string }{
			{ArtKey(i), fmt.Sprintf("art_%03d", i)},
			{HolderKey(i), fmt.Sprintf("holder_%03d", i)},
			{IPI(i), fmt.Sprintf("IPI-%08d", i)},
		} {
			if c.got != c.want {
				t.Errorf("key %q, want %q", c.got, c.want)
			}
		}
	}
	refArtHolderArgs := func(args []string) (int, int, error) {
		var a, h int
		if _, err := fmt.Sscanf(args[0], "%d", &a); err != nil || a < 0 {
			return 0, 0, fmt.Errorf("drm: bad artwork %q", args[0])
		}
		if _, err := fmt.Sscanf(args[1], "%d", &h); err != nil || h < 0 {
			return 0, 0, fmt.Errorf("drm: bad holder %q", args[1])
		}
		return a % Artworks, h % Holders, nil
	}
	inputs := []string{"0", "7", "42", "007", "123456789", "1234567890",
		"12abc", " 12", "+12", "0x1f", "-3", "", "abc", "12345678901234567890"}
	for _, a := range inputs {
		for _, h := range inputs {
			ga, gh, gerr := artHolderArgs([]string{a, h})
			wa, wh, werr := refArtHolderArgs([]string{a, h})
			if ga != wa || gh != wh || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Errorf("artHolderArgs(%q, %q) = %d, %d, %v; want %d, %d, %v", a, h, ga, gh, gerr, wa, wh, werr)
			}
		}
	}
	wl := NewWorkload(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		for _, a := range wl.Next(rng).Args {
			if n, err := strconv.Atoi(a); err == nil && a != fmt.Sprint(n) {
				t.Fatalf("workload argument %q is not fmt.Sprint of %d", a, n)
			}
		}
	}
}

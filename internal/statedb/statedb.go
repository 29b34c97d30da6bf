// Package statedb implements the world state: a versioned key/value
// store replicated on every peer (§2). Two backends mirror the paper's
// database-type control variable (§5.1.2):
//
//   - LevelDB: embedded sorted store over a skip list, fast simple
//     get/put/range, the Fabric default.
//   - CouchDB: JSON document store with Mango-style rich queries,
//     reached over a (simulated) REST hop — functionally richer and
//     markedly slower (Table 4).
//
// Each value carries a Height version (block, tx). The MVCC validation
// of the paper compares read-set versions against these.
package statedb

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ledger"
)

// Kind selects the database backend.
type Kind int

const (
	// LevelDB is the embedded default store.
	LevelDB Kind = iota
	// CouchDB is the external JSON document store.
	CouchDB
)

// String names the backend like the paper's tables.
func (k Kind) String() string {
	if k == CouchDB {
		return "CouchDB"
	}
	return "LevelDB"
}

// VersionedValue is a stored value with its MVCC version.
type VersionedValue struct {
	Value   []byte
	Version ledger.Height
}

// KV is one entry returned by range scans and rich queries.
type KV struct {
	Key     string
	Value   []byte
	Version ledger.Height
}

// Write is one element of an update batch. Each write carries the
// height of the transaction that produced it, exactly like Fabric's
// committer.
type Write struct {
	Key      string
	Value    []byte
	IsDelete bool
	Version  ledger.Height
}

// UpdateBatch is an ordered set of writes applied atomically at
// commit.
type UpdateBatch struct {
	Writes []Write
}

// Put appends a value write to the batch.
func (b *UpdateBatch) Put(key string, value []byte, v ledger.Height) {
	b.Writes = append(b.Writes, Write{Key: key, Value: value, Version: v})
}

// Delete appends a deletion to the batch.
func (b *UpdateBatch) Delete(key string, v ledger.Height) {
	b.Writes = append(b.Writes, Write{Key: key, IsDelete: true, Version: v})
}

// Len reports the number of writes in the batch.
func (b *UpdateBatch) Len() int { return len(b.Writes) }

// VersionedDB is the world-state interface shared by both backends.
type VersionedDB interface {
	// Kind identifies the backend.
	Kind() Kind
	// Get returns the stored value, or nil when the key is absent.
	Get(key string) *VersionedValue
	// GetRange scans the half-open interval [start, end) in key
	// order. Empty bounds are open. This backs GetStateByRange.
	GetRange(start, end string) []KV
	// ExecuteQuery runs a rich (selector) query over all documents.
	// Only CouchDB supports it; LevelDB returns an error (§5.1.2:
	// "LevelDB only supports simple get and set queries").
	ExecuteQuery(query string) ([]KV, error)
	// ApplyUpdates commits a batch and advances the savepoint.
	ApplyUpdates(batch *UpdateBatch, height uint64) error
	// Savepoint is the block height up to which updates are applied.
	Savepoint() uint64
	// Len reports the number of live keys.
	Len() int
	// Clone returns an independent deep copy of the database, used to
	// fan the genesis state out to every peer replica. Values are
	// shared (they are treated as immutable).
	Clone(seed int64) VersionedDB
}

// encodeVV serializes a versioned value: 16-byte height then value.
func encodeVV(v *VersionedValue) []byte {
	out := make([]byte, 16+len(v.Value))
	binary.LittleEndian.PutUint64(out[0:8], v.Version.BlockNum)
	binary.LittleEndian.PutUint64(out[8:16], v.Version.TxNum)
	copy(out[16:], v.Value)
	return out
}

// decodeVV parses the encoding produced by encodeVV. It returns the
// value rather than a pointer so range scans decode each entry without
// a heap allocation; Value aliases raw.
func decodeVV(raw []byte) VersionedValue {
	if len(raw) < 16 {
		panic(fmt.Sprintf("statedb: corrupt versioned value of %d bytes", len(raw)))
	}
	return VersionedValue{
		Version: ledger.Height{
			BlockNum: binary.LittleEndian.Uint64(raw[0:8]),
			TxNum:    binary.LittleEndian.Uint64(raw[8:16]),
		},
		Value: raw[16:],
	}
}

// New constructs a backend of the given kind. The seed fixes internal
// randomized structure (skip-list tower heights).
func New(kind Kind, seed int64) VersionedDB {
	if kind == CouchDB {
		return newCouchDB(seed)
	}
	return newLevelDB(seed)
}

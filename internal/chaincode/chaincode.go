// Package chaincode defines the smart-contract programming model of
// the simulation: the Chaincode interface implemented by the four
// use-case contracts and the generated genChain contracts, and the
// Stub through which invocations read and write the world state.
//
// The stub mirrors Fabric's transaction simulator semantics:
//
//   - GetState reads the *committed* state; a transaction cannot read
//     its own buffered writes (Fabric has no read-your-writes).
//   - PutState/DelState buffer into the write set; the last write per
//     key wins.
//   - GetStateByRange records a RangeQueryInfo that validation
//     re-executes for phantom detection.
//   - GetQueryResult (rich query, CouchDB only) records nothing that
//     validation checks — Fabric provides no phantom detection for
//     rich queries (Table 2 footnote, §5.1.2).
//
// Every stub also records an OpTrace so the cost model can price the
// invocation in virtual time.
package chaincode

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/ledger"
	"repro/internal/statedb"
)

// Chaincode is a smart contract. Implementations must be
// deterministic: for a given world state and arguments, every peer
// must produce the same read/write set.
type Chaincode interface {
	// Name is the chaincode identifier.
	Name() string
	// Init populates the initial world state (the paper's initLedger
	// functions) through the stub.
	Init(stub *Stub) error
	// Invoke dispatches a named function.
	Invoke(stub *Stub, fn string, args []string) error
}

// Stub is the world-state access object handed to chaincode
// invocations. It captures the read/write set and operation trace.
type Stub struct {
	db    statedb.VersionedDB
	rwset *ledger.RWSet
	trace costmodel.OpTrace
	// readKey and writes index rwset.Reads and rwset.Writes by key
	// once the slice outgrows smallSet; until then, lookups scan it.
	readKey map[string]bool // keys already in the read set
	writes  map[string]int  // key -> index into rwset.Writes
}

// smallSet is the read or write set size up to which the stub finds a
// key by a linear scan instead of a map. Most invocations touch one or
// two keys; range-heavy and genesis sets get a map.
const smallSet = 8

// NewStub creates a stub executing against db.
func NewStub(db statedb.VersionedDB) *Stub {
	return &Stub{db: db, rwset: &ledger.RWSet{}}
}

// RWSet returns the captured read/write set.
func (s *Stub) RWSet() *ledger.RWSet { return s.rwset }

// Trace returns the recorded operation counts for cost pricing.
func (s *Stub) Trace() costmodel.OpTrace { return s.trace }

// GetState returns the committed value of key, or nil when absent.
// The observed version is appended to the read set once per key.
func (s *Stub) GetState(key string) ([]byte, error) {
	if key == "" {
		return nil, errors.New("chaincode: empty key")
	}
	s.trace.Gets++
	vv := s.db.Get(key)
	if !s.hasRead(key) {
		r := ledger.KVRead{Key: key}
		if vv != nil {
			r.Version = vv.Version
		}
		s.rwset.Reads = append(s.rwset.Reads, r)
		switch reads := s.rwset.Reads; {
		case s.readKey != nil:
			s.readKey[key] = true
		case len(reads) > smallSet:
			s.readKey = make(map[string]bool, 2*len(reads))
			for _, r := range reads {
				s.readKey[r.Key] = true
			}
		}
	}
	if vv == nil {
		return nil, nil
	}
	return vv.Value, nil
}

// PutState buffers a write of value under key.
func (s *Stub) PutState(key string, value []byte) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	s.trace.Puts++
	s.bufferWrite(ledger.KVWrite{Key: key, Value: value})
	return nil
}

// DelState buffers a deletion of key.
func (s *Stub) DelState(key string) error {
	if key == "" {
		return errors.New("chaincode: empty key")
	}
	s.trace.Deletes++
	s.bufferWrite(ledger.KVWrite{Key: key, IsDelete: true})
	return nil
}

// hasRead reports whether key is already in the read set.
func (s *Stub) hasRead(key string) bool {
	if s.readKey != nil {
		return s.readKey[key]
	}
	for _, r := range s.rwset.Reads {
		if r.Key == key {
			return true
		}
	}
	return false
}

func (s *Stub) bufferWrite(w ledger.KVWrite) {
	if i := s.writeIndex(w.Key); i >= 0 {
		s.rwset.Writes[i] = w
		return
	}
	s.rwset.Writes = append(s.rwset.Writes, w)
	switch writes := s.rwset.Writes; {
	case s.writes != nil:
		s.writes[w.Key] = len(writes) - 1
	case len(writes) > smallSet:
		s.writes = make(map[string]int, 2*len(writes))
		for i, w := range writes {
			s.writes[w.Key] = i
		}
	}
}

// writeIndex returns the index of key's buffered write, or -1.
func (s *Stub) writeIndex(key string) int {
	if s.writes != nil {
		if i, ok := s.writes[key]; ok {
			return i
		}
		return -1
	}
	for i, w := range s.rwset.Writes {
		if w.Key == key {
			return i
		}
	}
	return -1
}

// GetStateByRange scans [start, end) and records the observed
// key/version list for phantom validation.
func (s *Stub) GetStateByRange(start, end string) ([]statedb.KV, error) {
	kvs := s.db.GetRange(start, end)
	s.trace.Ranges++
	s.trace.RangeKeys += len(kvs)
	rq := ledger.RangeQueryInfo{StartKey: start, EndKey: end}
	if len(kvs) > 0 {
		rq.Reads = make([]ledger.KVRead, len(kvs))
		for i, kv := range kvs {
			rq.Reads[i] = ledger.KVRead{Key: kv.Key, Version: kv.Version}
		}
	}
	s.rwset.RangeQueries = append(s.rwset.RangeQueries, rq)
	return kvs, nil
}

// SupportsRichQueries reports whether the underlying state database
// can execute selector queries (CouchDB only).
func (s *Stub) SupportsRichQueries() bool { return s.db.Kind() == statedb.CouchDB }

// GetQueryResult executes a rich selector query. The results are
// recorded as an *unchecked* range observation: validation never
// re-executes them, so rich queries cannot produce phantom read
// conflicts — and provide no guarantee of result validity.
func (s *Stub) GetQueryResult(query string) ([]statedb.KV, error) {
	kvs, err := s.db.ExecuteQuery(query)
	if err != nil {
		return nil, fmt.Errorf("chaincode: rich query failed: %w", err)
	}
	s.trace.Queries++
	s.trace.QueryDocs += len(kvs)
	s.trace.ScannedLen += s.db.Len()
	rq := ledger.RangeQueryInfo{Unchecked: true}
	for _, kv := range kvs {
		rq.Reads = append(rq.Reads, ledger.KVRead{Key: kv.Key, Version: kv.Version})
	}
	s.rwset.RangeQueries = append(s.rwset.RangeQueries, rq)
	return kvs, nil
}

// Registry maps chaincode names to constructors so experiments can
// instantiate contracts by name.
type Registry struct {
	byName map[string]func() Chaincode
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]func() Chaincode{}}
}

// Register adds a constructor under name, replacing any previous one.
func (r *Registry) Register(name string, ctor func() Chaincode) {
	r.byName[name] = ctor
}

// New instantiates the named chaincode.
func (r *Registry) New(name string) (Chaincode, error) {
	ctor, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("chaincode: unknown chaincode %q", name)
	}
	return ctor(), nil
}

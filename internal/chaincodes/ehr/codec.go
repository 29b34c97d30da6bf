package ehr

import (
	"slices"
	"strconv"

	"repro/internal/chaincode"
)

// Hand codecs for the two EHR documents. Both encode to exactly what
// encoding/json writes for them; chaincode.EncodeDoc and DecodeDoc
// fall back to encoding/json for anything these do not cover.

// AppendJSON implements chaincode.JSONAppender.
func (p *profile) AppendJSON(dst []byte) ([]byte, bool) {
	return appendEntity(dst, p.PatientID, p.Access, `,"updates":`, p.Updates)
}

// DecodeJSON implements chaincode.JSONDecoder.
func (p *profile) DecodeJSON(raw []byte) bool {
	id, access, n, ok := decodeEntity(raw, `,"updates":`)
	if ok {
		p.PatientID, p.Access, p.Updates = id, chaincode.MergeBoolMap(p.Access, access), n
	}
	return ok
}

// AppendJSON implements chaincode.JSONAppender.
func (r *record) AppendJSON(dst []byte) ([]byte, bool) {
	return appendEntity(dst, r.PatientID, r.Access, `,"entries":`, r.Entries)
}

// DecodeJSON implements chaincode.JSONDecoder.
func (r *record) DecodeJSON(raw []byte) bool {
	id, access, n, ok := decodeEntity(raw, `,"entries":`)
	if ok {
		r.PatientID, r.Access, r.Entries = id, chaincode.MergeBoolMap(r.Access, access), n
	}
	return ok
}

// appendEntity encodes a profile or record, which differ only in the
// name of their counter field (given with its leading comma).
func appendEntity(dst []byte, id string, access map[string]bool, counter string, n int) ([]byte, bool) {
	dst = slices.Grow(dst, 48+len(id)+16*len(access))
	dst = append(dst, `{"patientId":`...)
	dst, ok := chaincode.AppendString(dst, id)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"access":`...)
	if dst, ok = chaincode.AppendBoolMap(dst, access); !ok {
		return dst, false
	}
	dst = append(dst, counter...)
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '}'), true
}

// decodeEntity reads what appendEntity writes.
func decodeEntity(raw []byte, counter string) (id string, access map[string]bool, n int, ok bool) {
	r := chaincode.NewDocReader(raw)
	r.Lit(`{"patientId":`)
	id = r.Str()
	r.Lit(`,"access":`)
	access = r.BoolMap()
	r.Lit(counter)
	n = r.Int()
	r.Lit("}")
	return id, access, n, r.Done()
}

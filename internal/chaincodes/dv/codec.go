package dv

import (
	"slices"
	"strconv"

	"repro/internal/chaincode"
)

// Hand codecs for the three DV documents. Each encodes to exactly what
// encoding/json writes for it; chaincode.EncodeDoc and DecodeDoc fall
// back to encoding/json for anything these do not cover.

// AppendJSON implements chaincode.JSONAppender.
func (v *voterDoc) AppendJSON(dst []byte) ([]byte, bool) {
	dst = slices.Grow(dst, 40+len(v.VoterID)+len(v.Party))
	dst = append(dst, `{"voterId":`...)
	dst, ok := chaincode.AppendString(dst, v.VoterID)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"voted":`...)
	dst = strconv.AppendBool(dst, v.Voted)
	if v.Party != "" { // omitempty
		dst = append(dst, `,"party":`...)
		if dst, ok = chaincode.AppendString(dst, v.Party); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// DecodeJSON implements chaincode.JSONDecoder. A document without a
// party leaves Party as it was, as json.Unmarshal does.
func (v *voterDoc) DecodeJSON(raw []byte) bool {
	r := chaincode.NewDocReader(raw)
	r.Lit(`{"voterId":`)
	id := r.Str()
	r.Lit(`,"voted":`)
	voted := r.Bool()
	party, hasParty := v.Party, r.Has(`,"party":`)
	if hasParty {
		party = r.Str()
	}
	r.Lit("}")
	if !r.Done() {
		return false
	}
	v.VoterID, v.Voted, v.Party = id, voted, party
	return true
}

// AppendJSON implements chaincode.JSONAppender.
func (p *partyDoc) AppendJSON(dst []byte) ([]byte, bool) {
	dst = slices.Grow(dst, 40+len(p.PartyID))
	dst = append(dst, `{"partyId":`...)
	dst, ok := chaincode.AppendString(dst, p.PartyID)
	if !ok {
		return dst, false
	}
	dst = append(dst, `,"votes":`...)
	dst = strconv.AppendInt(dst, int64(p.Votes), 10)
	return append(dst, '}'), true
}

// DecodeJSON implements chaincode.JSONDecoder.
func (p *partyDoc) DecodeJSON(raw []byte) bool {
	r := chaincode.NewDocReader(raw)
	r.Lit(`{"partyId":`)
	id := r.Str()
	r.Lit(`,"votes":`)
	votes := r.Int()
	r.Lit("}")
	if !r.Done() {
		return false
	}
	p.PartyID, p.Votes = id, votes
	return true
}

// AppendJSON implements chaincode.JSONAppender.
func (e *electionDoc) AppendJSON(dst []byte) ([]byte, bool) {
	dst = slices.Grow(dst, len(`{"open":false}`))
	dst = append(dst, `{"open":`...)
	dst = strconv.AppendBool(dst, e.Open)
	return append(dst, '}'), true
}

// DecodeJSON implements chaincode.JSONDecoder.
func (e *electionDoc) DecodeJSON(raw []byte) bool {
	r := chaincode.NewDocReader(raw)
	r.Lit(`{"open":`)
	open := r.Bool()
	r.Lit("}")
	if !r.Done() {
		return false
	}
	e.Open = open
	return true
}

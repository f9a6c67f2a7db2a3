package exec

import (
	"encoding/json"

	"galactos/internal/catalog"
)

// The Request wire decode. A Request's wire bytes are json.Marshal's at
// every site that writes them (the client's submissions, the journal's
// submit records). galactosd's submit handler first offers a body to
// ParseCanonicalRequest, which takes the shape json.Marshal writes for an
// inline catalog, and hands anything else to json.Decoder. See DESIGN.md,
// "One Request decode".

// canonicalPrefix opens json.Marshal's encoding of every Request with an
// inline catalog: "catalog" is the first key it writes.
const canonicalPrefix = `{"catalog":`

// restRequest decodes the members after a canonical inline catalog. Its
// Catalog field shadows Request's, so that a second catalog member, under
// any case of the key and even as null, is seen rather than merged.
type restRequest struct {
	Request
	Catalog seenMember `json:"catalog"`
}

// seenMember records that its member was present.
type seenMember bool

func (s *seenMember) UnmarshalJSON([]byte) error {
	*s = true
	return nil
}

// ParseCanonicalRequest decodes data when it is a Request whose inline
// catalog leads in the form json.Marshal writes: `{"catalog":`, the
// catalog in catalog.ParseJSON's shape, then either `}` or the remaining
// members, which encoding/json decodes. It reports false for every other
// body — no inline catalog, whitespace or another key order before the
// catalog's end, a second catalog member, an undecodable member, bytes
// after the object — and the caller decodes those with encoding/json. What
// it accepts decodes to the Request encoding/json would give.
func ParseCanonicalRequest(data []byte) (Request, bool) {
	if len(data) < len(canonicalPrefix) || string(data[:len(canonicalPrefix)]) != canonicalPrefix {
		return Request{}, false
	}
	cat, n, ok := catalog.ParseJSON(data[len(canonicalPrefix):])
	if !ok {
		return Request{}, false
	}
	i := len(canonicalPrefix) + n
	switch {
	case i == len(data)-1 && data[i] == '}':
		return Request{Catalog: cat}, true
	case i >= len(data) || data[i] != ',' || !startsMember(data[i+1:]) || data[len(data)-1] != '}':
		return Request{}, false
	}
	// data[i:] is `,"key":...}`: as `{"key":...}` it is an object of the
	// remaining members, and invalid JSON exactly when the whole body is.
	// Ending in '}', it decodes only if nothing, whitespace included,
	// follows the object. The members are the config and the label, a few
	// hundred bytes, so they are decoded from a copy.
	var rest restRequest
	if err := json.Unmarshal(append([]byte{'{'}, data[i+1:]...), &rest); err != nil || rest.Catalog {
		return Request{}, false
	}
	rest.Request.Catalog = cat
	return rest.Request, true
}

// startsMember reports whether d, past any JSON whitespace, opens an object
// member (a string key), so `,}` is not read as the empty object `{}`.
func startsMember(d []byte) bool {
	for _, c := range d {
		switch c {
		case ' ', '\t', '\n', '\r':
		case '"':
			return true
		default:
			return false
		}
	}
	return false
}

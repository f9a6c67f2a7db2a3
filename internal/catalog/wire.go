package catalog

import (
	"bytes"
	"strconv"
)

// The inline catalog's wire form is encoding/json's encoding of a Catalog,
// one fixed shape with no whitespace and every key in field order:
//
//	{"Galaxies":[{"Pos":{"X":x,"Y":y,"Z":z},"Weight":w},...],"Box":{"L":l}}
//
// with "Galaxies":null for a nil slice. ParseJSON reads that shape back
// without encoding/json's scanner: a galactosd inline submission is ~90
// bytes a galaxy, almost all of it numbers, so their conversion is the
// floor of its decode. It leaves every other shape to encoding/json (see
// exec.ParseCanonicalRequest).

// ParseJSON reads a catalog in the wire form json.Marshal writes from the
// start of data, and returns it with the number of bytes it spans. Numbers
// may take any form the JSON grammar (RFC 8259) allows and are converted as
// encoding/json converts them, with strconv.ParseFloat. It reports false for
// anything else — whitespace, another key order or case, a missing or
// extra key, a number out of float64's range — so that the caller can hand
// the bytes to encoding/json, which decodes them or names their error.
func ParseJSON(data []byte) (*Catalog, int, bool) {
	p := parser{data: data}
	if !p.lit(`{"Galaxies":`) {
		return nil, 0, false
	}
	c := &Catalog{}
	if !p.lit("null") {
		if !p.lit("[") {
			return nil, 0, false
		}
		// Every galaxy opens with `{"Pos":`, which no JSON string can hold,
		// so counting it sizes the slice once, by at least as many galaxies
		// as the catalog has; and each takes at least minGalaxyBytes, so
		// bytes that are not a catalog cannot size it beyond their length.
		rest := data[p.i:]
		n := min(bytes.Count(rest, []byte(`{"Pos":`)), (len(rest)+1)/minGalaxyBytes)
		c.Galaxies = make([]Galaxy, 0, n)
		if !p.lit("]") {
			for {
				var g Galaxy
				if !p.lit(`{"Pos":{"X":`) || !p.num(&g.Pos.X) ||
					!p.lit(`,"Y":`) || !p.num(&g.Pos.Y) ||
					!p.lit(`,"Z":`) || !p.num(&g.Pos.Z) ||
					!p.lit(`},"Weight":`) || !p.num(&g.Weight) || !p.lit("}") {
					return nil, 0, false
				}
				c.Galaxies = append(c.Galaxies, g)
				if p.lit("]") {
					break
				}
				if !p.lit(",") {
					return nil, 0, false
				}
			}
		}
	}
	if !p.lit(`,"Box":{"L":`) || !p.num(&c.Box.L) || !p.lit("}}") {
		return nil, 0, false
	}
	return c, p.i, true
}

// minGalaxyBytes is the shortest galaxy in the wire form with the comma
// after it: {"Pos":{"X":0,"Y":0,"Z":0},"Weight":0},
const minGalaxyBytes = 39

// parser is ParseJSON's cursor over data.
type parser struct {
	data []byte
	i    int
}

// lit consumes s if the input continues with it.
func (p *parser) lit(s string) bool {
	if len(p.data)-p.i < len(s) || string(p.data[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// num consumes one JSON number, converted into *f: an optional minus, an
// integer part with no leading zero, then an optional fraction and
// exponent, each with at least one digit. It reports false, consuming
// nothing, when the input does not continue with one or ParseFloat
// refuses it (a magnitude beyond float64's range).
func (p *parser) num(f *float64) bool {
	d, i := p.data, p.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return false
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(d[p.i:i]), 64)
	if err != nil {
		return false
	}
	*f, p.i = v, i
	return true
}

// digits returns the index of the first byte at or after i that is not an
// ASCII digit.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

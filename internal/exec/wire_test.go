package exec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/geom"
)

// wireRequest is a request with an inline catalog of n galaxies built from
// the fuzzer's values (n < 0 gives a nil Galaxies slice).
func wireRequest(n int, x, y, z, w, l float64, label string) Request {
	cat := &catalog.Catalog{Box: geom.Periodic{L: l}}
	if n >= 0 {
		cat.Galaxies = make([]catalog.Galaxy, n)
	}
	for i := range cat.Galaxies {
		// Each galaxy a different mix of the values, so that every field's
		// slot sees each of them.
		v := [4]float64{x, y, z, w}
		cat.Galaxies[i] = catalog.Galaxy{
			Pos:    geom.Vec3{X: v[i%4], Y: v[(i+1)%4], Z: v[(i+2)%4]},
			Weight: v[(i+3)%4],
		}
	}
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax = 40, 4, 2
	return Request{Catalog: cat, Config: cfg, Label: label, TimeoutSec: x}
}

// checkMarshaled: the canonical decode accepts json.Marshal's bytes for a
// request with an inline catalog, and reads back what json.Unmarshal does.
func checkMarshaled(t *testing.T, req Request) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil || req.Catalog == nil {
		return
	}
	if _, ok := ParseCanonicalRequest(body); !ok {
		t.Fatalf("the canonical decode declines json.Marshal's bytes %s", body)
	}
	checkDecode(t, body)
}

// checkDecode: the canonical decode declines body, or reads the Request
// json.Unmarshal reads from it.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, ok := ParseCanonicalRequest(body)
	if !ok {
		return
	}
	var want Request
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("the canonical decode accepted %q, which json.Unmarshal refuses: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: the canonical decode read\n%+v\njson.Unmarshal read\n%+v", body, got, want)
	}
}

// wireDeclines are bodies the canonical decode must hand to encoding/json:
// each departs from the shape json.Marshal writes, or is not JSON.
var wireDeclines = []string{
	`{"catalog":{"Galaxies":[{"Pos":{"X":+1,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":01,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":1.,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":.5,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":1e,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":1e400,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":NaN,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":0,"Y":0,"Z":0},"Weight":1},],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":0, "Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`,
	`{"catalog":{"galaxies":[],"Box":{"L":0}}}`,
	`{"catalog":{"Box":{"L":0},"Galaxies":[]}}`,
	`{"catalog":{"Galaxies":[]}}`,
	`{"Catalog":{"Galaxies":[],"Box":{"L":0}}}`,
	`{ "catalog":{"Galaxies":[],"Box":{"L":0}}}`,
	`{"catalog":null,"config":{}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}, }`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"label":"x"} `,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"label":"x"}{}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"label":"x"}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"label":7}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"catalog":null}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"Catalog":{"Box":{"L":5}}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}},"CATALOG":{}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}}x`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}} `,
}

// wireAccepts are bodies in the canonical shape with numbers json.Marshal
// would not write: the JSON grammar allows them, and they decode as
// encoding/json decodes them.
var wireAccepts = []string{
	`{"catalog":{"Galaxies":null,"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}}`,
	`{"catalog":{"Galaxies":[{"Pos":{"X":-0,"Y":1.50,"Z":2E+3},"Weight":-1e-400}],"Box":{"L":0.0e0}},"config":{"RMax":40}}`,
	`{"catalog":{"Galaxies":[],"Box":{"L":0}}, "path" : "p", "label":"a&b"}`,
}

// FuzzRequestWire pins the canonical decode to encoding/json. For any
// request built from the fuzzer's floats (each galaxy field and the box
// side, so -0, subnormals and both of json's exponent thresholds), a galaxy
// count (a nil, an empty or a non-empty slice) and a label, it accepts
// json.Marshal's bytes. For any body, it either declines or reads
// json.Unmarshal's Request.
func FuzzRequestWire(f *testing.F) {
	for _, v := range [][5]float64{
		{1, 2, 3, 1, 0},
		{math.Copysign(0, -1), 5e-324, 1e-7, 1e21, 1e300},
		{9.999999e-7, 1e-6, 1e20, 999999999999999999999, 2.2250738585072014e-308},
		{-1e-7, -1e21, 0.1, 123456.789, 42},
		{math.NaN(), 0, 0, 1, 10},
		{0, 0, 0, 1, math.Inf(1)},
	} {
		for _, n := range []int{-1, 0, 1, 5} {
			req := wireRequest(n, v[0], v[1], v[2], v[3], v[4], "a<&>b  ")
			body, _ := json.Marshal(req)
			f.Add(body, n, v[0], v[1], v[2], v[3], v[4], req.Label)
		}
	}
	// Short bodies seed the number slot and the members after a catalog.
	for _, body := range append(wireDeclines, append(wireAccepts, "1.5", "-0e+1", `"label":"x"}`)...) {
		f.Add([]byte(body), 1, 1.0, 2.0, 3.0, 1.0, 0.0, "")
	}
	f.Fuzz(func(t *testing.T, body []byte, n int, x, y, z, w, l float64, label string) {
		checkMarshaled(t, wireRequest(n%8, x, y, z, w, l, label))
		checkDecode(t, body)
		// body also fills a number's slot, and the members after a catalog,
		// so that short inputs reach the number grammar and the rest decode.
		checkDecode(t, slices.Concat([]byte(`{"catalog":{"Galaxies":[{"Pos":{"X":`), body, []byte(`,"Y":0,"Z":0},"Weight":1}],"Box":{"L":0}}}`)))
		checkDecode(t, slices.Concat([]byte(`{"catalog":{"Galaxies":[],"Box":{"L":0}},`), body))
	})
}

// TestRequestWireTable: the canonical decode declines every departure from
// json.Marshal's shape and accepts the grammar's other spellings of a
// number.
func TestRequestWireTable(t *testing.T) {
	for _, body := range wireDeclines {
		if _, ok := ParseCanonicalRequest([]byte(body)); ok {
			t.Errorf("accepted %s", body)
		}
	}
	for _, body := range wireAccepts {
		if _, ok := ParseCanonicalRequest([]byte(body)); !ok {
			t.Errorf("declined %s", body)
		}
		checkDecode(t, []byte(body))
	}
}

// BenchmarkRequestWire decodes service_mix's inline request, 500 uniform
// galaxies in a box at the Outer Rim density, by json.Decoder (the submit
// handler's fallback) and by the canonical decode.
func BenchmarkRequestWire(b *testing.B) {
	const n = 500
	cfg := core.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers = 8, 10, 10, 1
	req := Request{Catalog: catalog.Uniform(n, math.Cbrt(n/catalog.OuterRimDensity), 1), Config: cfg}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		op   func() error
	}{
		{"decode/stdlib", func() error {
			var r Request
			return json.NewDecoder(bytes.NewReader(body)).Decode(&r)
		}},
		{"decode/canonical", func() error {
			if _, ok := ParseCanonicalRequest(body); !ok {
				return fmt.Errorf("declined")
			}
			return nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

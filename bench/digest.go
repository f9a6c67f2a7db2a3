package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"galactos/internal/core"
)

// digest condenses a result enough to tell a changed answer from regrouped
// sums: the pair count, 64 channels sampled at a fixed stride, and the L2
// norm of all channels.
type digest struct {
	Pairs   uint64       `json:"pairs"`
	L2      float64      `json:"l2"`
	Samples [][2]float64 `json:"samples"`
}

const digestSamples = 64

func digestOf(r *core.Result) digest {
	d := digest{Pairs: r.Pairs}
	var ss float64
	for _, v := range r.Aniso {
		ss += real(v)*real(v) + imag(v)*imag(v)
	}
	d.L2 = math.Sqrt(ss)
	// 0.618… of the length is coprime enough with every channel layout to
	// land the samples on distinct (combo, bin, bin) entries.
	stride := max(1, int(0.6180339887*float64(len(r.Aniso))))
	for k, i := 0, 0; k < digestSamples; k, i = k+1, (i+stride)%len(r.Aniso) {
		d.Samples = append(d.Samples, [2]float64{real(r.Aniso[i]), imag(r.Aniso[i])})
	}
	return d
}

// matches compares two digests at tol relative to the larger sample.
func (d digest) matches(want digest, tol float64) error {
	if d.Pairs != want.Pairs {
		return fmt.Errorf("golden digest: %d pairs, want %d", d.Pairs, want.Pairs)
	}
	if math.Abs(d.L2-want.L2) > tol*want.L2 {
		return fmt.Errorf("golden digest: L2 norm %.12g, want %.12g", d.L2, want.L2)
	}
	if len(d.Samples) != len(want.Samples) {
		return fmt.Errorf("golden digest: %d samples, want %d", len(d.Samples), len(want.Samples))
	}
	var scale float64
	for _, s := range want.Samples {
		scale = math.Max(scale, math.Hypot(s[0], s[1]))
	}
	for i, s := range d.Samples {
		if math.Hypot(s[0]-want.Samples[i][0], s[1]-want.Samples[i][1]) > tol*scale {
			return fmt.Errorf("golden digest: sample %d is %v, want %v", i, s, want.Samples[i])
		}
	}
	return nil
}

// goldenSeed and scale 1 are the inputs testdata/golden.json was taken on.
const (
	goldenSeed = 1
	goldenFile = "testdata/golden.json"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares d with the committed digest of the workload, or, when
// update is set, replaces it in the file beside the source.
func checkGolden(name string, d digest, update bool) error {
	data := goldenJSON
	if update { // the file on disk may be newer than the embedded copy
		var err error
		if data, err = os.ReadFile(goldenFile); err != nil {
			return err
		}
	}
	g := map[string]digest{}
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("%s: %w", goldenFile, err)
	}
	if !update {
		want, ok := g[name]
		if !ok {
			return fmt.Errorf("%s has no digest for %s; run with -update-golden", goldenFile, name)
		}
		return d.matches(want, 1e-6)
	}
	g[name] = d
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}

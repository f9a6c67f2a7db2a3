package catalog

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"galactos/internal/geom"
)

func TestUniformBasics(t *testing.T) {
	c := Uniform(1000, 100, 1)
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.Density(); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("Density = %v, want 1e-3", got)
	}
	if got := c.TotalWeight(); got != 1000 {
		t.Errorf("TotalWeight = %v", got)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(100, 50, 7)
	b := Uniform(100, 50, 7)
	for i := range a.Galaxies {
		if a.Galaxies[i] != b.Galaxies[i] {
			t.Fatal("same seed produced different catalogs")
		}
	}
	c := Uniform(100, 50, 8)
	same := true
	for i := range a.Galaxies {
		if a.Galaxies[i] != c.Galaxies[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical catalogs")
	}
}

func TestClusteredValidAndClustered(t *testing.T) {
	c := Clustered(5000, 300, DefaultClusterParams(), 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(c.Len())-5000) > 500 {
		t.Errorf("Len = %d, want ~5000", c.Len())
	}
	// Clustering check: satellites (appended after the uniform field
	// population) must see far more neighbors within 10 Mpc/h than the
	// Poisson expectation.
	nNear := 0
	sample := c.Galaxies[len(c.Galaxies)-200:]
	for _, g := range sample {
		for _, h := range c.Galaxies {
			if g != h && c.Box.Separation(g.Pos, h.Pos).Norm() < 10 {
				nNear++
			}
		}
	}
	meanNear := float64(nNear) / float64(len(sample))
	poissonExpect := float64(c.Len()) / (300 * 300 * 300) * (4.0 / 3.0) * math.Pi * 1000
	if meanNear < 2*poissonExpect {
		t.Errorf("mean near-neighbor count %v not clustered vs Poisson %v", meanNear, poissonExpect)
	}
}

func TestBAOShellsHasShellExcess(t *testing.T) {
	p := DefaultBAOParams()
	c := BAOShells(4000, 500, p, 3)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pair counts in the acoustic band, compared against a uniform catalog
	// of identical size: the BAO catalog must show a clear excess.
	u := Uniform(c.Len(), 500, 99)
	countIn := func(cat *Catalog, lo, hi float64) int {
		n := 0
		for i := range cat.Galaxies {
			for j := i + 1; j < len(cat.Galaxies); j++ {
				d := cat.Box.Separation(cat.Galaxies[i].Pos, cat.Galaxies[j].Pos).Norm()
				if d >= lo && d < hi {
					n++
				}
			}
		}
		return n
	}
	lo, hi := p.ShellRadius-10, p.ShellRadius+10
	atShell := countIn(c, lo, hi)
	ref := countIn(u, lo, hi)
	ratio := float64(atShell) / float64(ref)
	if ratio < 1.02 {
		t.Errorf("no BAO excess: band ratio %v (BAO %d vs uniform %d)", ratio, atShell, ref)
	}
}

func TestBAOShellsPanicsOnBadBox(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for shell radius exceeding box")
		}
	}()
	BAOShells(100, 50, DefaultBAOParams(), 1)
}

func TestSoneiraPeebles(t *testing.T) {
	p := DefaultSoneiraPeebles()
	c := SoneiraPeebles(400, p, 5)
	want := p.Centers * int(math.Pow(float64(p.Eta), float64(p.Levels)))
	if c.Len() != want {
		t.Errorf("Len = %d, want %d", c.Len(), want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRSDOnlyShiftsZ(t *testing.T) {
	c := Uniform(500, 100, 9)
	d := ApplyRSD(c, 5, 10)
	if d.Len() != c.Len() {
		t.Fatal("length changed")
	}
	moved := 0
	for i := range c.Galaxies {
		if c.Galaxies[i].Pos.X != d.Galaxies[i].Pos.X || c.Galaxies[i].Pos.Y != d.Galaxies[i].Pos.Y {
			t.Fatal("RSD moved x or y")
		}
		if c.Galaxies[i].Pos.Z != d.Galaxies[i].Pos.Z {
			moved++
		}
	}
	if moved < 400 {
		t.Errorf("only %d galaxies moved in z", moved)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithDataMinusRandom(t *testing.T) {
	data := Uniform(300, 100, 1)
	random := Uniform(900, 100, 2)
	combined, err := WithDataMinusRandom(data, random)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Len() != 1200 {
		t.Fatalf("Len = %d", combined.Len())
	}
	if w := combined.TotalWeight(); math.Abs(w) > 1e-9 {
		t.Errorf("total weight = %v, want 0", w)
	}
	if _, err := WithDataMinusRandom(data, &Catalog{Box: geom.Periodic{L: 100}}); err == nil {
		t.Error("expected error for empty random catalog")
	}
}

func TestSubBox(t *testing.T) {
	c := Uniform(5000, 100, 4)
	box := geom.Box{Min: geom.Vec3{X: 20, Y: 20, Z: 20}, Max: geom.Vec3{X: 60, Y: 60, Z: 60}}
	sub := c.SubBox(box)
	for _, g := range sub.Galaxies {
		if g.Pos.X < 0 || g.Pos.X >= 40 || g.Pos.Y < 0 || g.Pos.Y >= 40 || g.Pos.Z < 0 || g.Pos.Z >= 40 {
			t.Fatalf("sub-box galaxy at %v outside translated box", g.Pos)
		}
	}
	// Expect about (40/100)^3 of the galaxies.
	want := 5000 * 0.4 * 0.4 * 0.4
	if math.Abs(float64(sub.Len())-want) > 100 {
		t.Errorf("sub-box has %d galaxies, want ~%v", sub.Len(), want)
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	c := &Catalog{Box: geom.Periodic{L: 10}, Galaxies: []Galaxy{
		{Pos: geom.Vec3{X: 5, Y: 5, Z: 5}, Weight: 1},
	}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Galaxies = append(c.Galaxies, Galaxy{Pos: geom.Vec3{X: 11, Y: 5, Z: 5}, Weight: 1})
	if err := c.Validate(); err == nil {
		t.Error("expected out-of-box error")
	}
	c.Galaxies[1] = Galaxy{Pos: geom.Vec3{X: math.NaN(), Y: 5, Z: 5}, Weight: 1}
	if err := c.Validate(); err == nil {
		t.Error("expected NaN error")
	}
	c.Galaxies[1] = Galaxy{Pos: geom.Vec3{X: 5, Y: 5, Z: 5}, Weight: math.Inf(1)}
	if err := c.Validate(); err == nil {
		t.Error("expected weight error")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	c := Clustered(777, 120, DefaultClusterParams(), 6)
	var buf bytes.Buffer
	if err := writeBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Box.L != c.Box.L || got.Len() != c.Len() {
		t.Fatalf("header mismatch: L=%v N=%d", got.Box.L, got.Len())
	}
	for i := range c.Galaxies {
		if got.Galaxies[i] != c.Galaxies[i] {
			t.Fatalf("galaxy %d mismatch", i)
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	c := Uniform(10, 50, 1)
	var buf bytes.Buffer
	if err := writeBinary(&buf, c); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := readBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := readBinary(bytes.NewReader(data[:20])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := readBinary(bytes.NewReader(data[:40])); err == nil {
		t.Error("truncated records accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := Uniform(50, 80, 2)
	c.Galaxies[3].Weight = -0.5
	var buf bytes.Buffer
	if err := writeCSV(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Box.L != 80 {
		t.Errorf("L = %v, want 80 (from comment)", got.Box.L)
	}
	if got.Len() != 50 {
		t.Fatalf("Len = %d", got.Len())
	}
	for i := range c.Galaxies {
		if math.Abs(got.Galaxies[i].Weight-c.Galaxies[i].Weight) > 1e-12 {
			t.Fatalf("weight %d mismatch", i)
		}
		if got.Galaxies[i].Pos.Sub(c.Galaxies[i].Pos).Norm() > 1e-9 {
			t.Fatalf("position %d mismatch", i)
		}
	}
}

func TestCSVDefaultsWeightAndRejectsBadRows(t *testing.T) {
	got, err := readCSV(strings.NewReader("1,2,3\n4,5,6,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Galaxies[0].Weight != 1 || got.Galaxies[1].Weight != 2.5 {
		t.Errorf("weights = %v, %v", got.Galaxies[0].Weight, got.Galaxies[1].Weight)
	}
	if _, err := readCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("2-field row accepted")
	}
	if _, err := readCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("non-numeric row accepted")
	}
}

// FuzzCSVCursor: no input panics the CSV cursor or readCSV; the cursor
// never delivers more rows than the input has bytes for ("1,2,3" plus a
// newline per row); readCSV accepts exactly what the cursor drains cleanly
// into a catalog that passes the acceptance rule, whatever buffer the cursor
// is drained with, and gets the same catalog; and an accepted catalog
// survives writeCSV → readCSV.
func FuzzCSVCursor(f *testing.F) {
	var buf bytes.Buffer
	c := Uniform(50, 80, 2)
	c.Galaxies[3].Weight = -0.5
	if err := writeCSV(&buf, c); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint16(7))
	for _, s := range []string{
		"1,2,3\n4,5,6,2.5\n", "1,2\n", "a,b,c\n", "1,2,3,4,5\n",
		"# L=abc\n1,2,3\n", "1,2,3\n# note L=50 N=1\n\r\n 4 , 5 ,6 \r\n",
		"NaN,1,2\n", "1,2,3,+Inf\n", "#L=1e400\n", "# L=5\n1,2,5\n", "-1,2,3\n# L=4\n",
	} {
		f.Add([]byte(s), uint16(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, bufLen uint16) {
		cur := newCSVCursor(bytes.NewReader(data), nil)
		got, curErr := drainCounting(cur.Next, int(bufLen)%64+1)
		if len(got) > (len(data)+1)/6 {
			t.Fatalf("%d rows out of a %d-byte input", len(got), len(data))
		}
		cat, err := readCSV(bytes.NewReader(data))
		if want := curErr == nil && (&Catalog{Box: cur.Box(), Galaxies: got}).Validate() == nil; (err == nil) != want {
			t.Fatalf("readCSV error %v; cursor error %v over %d rows", err, curErr, len(got))
		}
		if err != nil {
			return
		}
		assertSameCatalog(t, &Catalog{Box: cur.Box(), Galaxies: got}, cat)
		var out bytes.Buffer
		if err := writeCSV(&out, cat); err != nil {
			t.Fatal(err)
		}
		back, err := readCSV(&out)
		if err != nil {
			t.Fatalf("re-reading writeCSV output: %v", err)
		}
		assertSameCatalog(t, back, cat)
	})
}

// TestSaveLoadFile: Save writes the format the path names, so both a
// binary and a ".csv" path read back through a FileSource to the catalog
// saved (the CSV to its printed precision), and SaveBinary refuses a ".csv"
// path rather than write binary where every reader expects CSV.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	c := Uniform(25, 60, 3)
	for _, name := range []string{"cat.glxc", "cat.csv"} {
		path := filepath.Join(dir, name)
		if err := Save(path, c); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(NewFileSource(path))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 25 || got.Box.L != 60 {
			t.Fatalf("%s: N=%d L=%v", name, got.Len(), got.Box.L)
		}
		for i, g := range got.Galaxies {
			if g.Pos.Sub(c.Galaxies[i].Pos).Norm() > 1e-9 || g.Weight != c.Galaxies[i].Weight {
				t.Fatalf("%s: galaxy %d is %+v, saved %+v", name, i, g, c.Galaxies[i])
			}
		}
	}
	if err := SaveBinary(filepath.Join(dir, "x.csv"), c); err == nil {
		t.Error("SaveBinary wrote binary to a .csv path")
	}
}

// TestAcceptanceRuleRefusesOutsideBox: a periodic catalog with a coordinate
// outside [0, L) is refused, naming the axis, by every first pass — ReadAll
// of a memory source and of a file (where a CSV's box arrives after the
// rows), and Hash — while the same catalog with open boundaries, and one
// with a coordinate at -0, pass.
func TestAcceptanceRuleRefusesOutsideBox(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		move func(*Galaxy)
		axis string
	}{
		{"x-below", func(g *Galaxy) { g.Pos.X -= 60 }, "x coordinates"},
		{"y-at-L", func(g *Galaxy) { g.Pos.Y = 60 }, "y coordinates"},
		{"z-beyond", func(g *Galaxy) { g.Pos.Z += 120 }, "z coordinates"},
	} {
		c := Uniform(40, 60, 5)
		tc.move(&c.Galaxies[17])
		bin, csv := filepath.Join(dir, tc.name+".glxc"), filepath.Join(dir, tc.name+".csv")
		for _, p := range []string{bin, csv} {
			if err := Save(p, c); err != nil {
				t.Fatal(err)
			}
		}
		// The CSV's box token arrives only after its rows.
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		head, rows, _ := strings.Cut(string(data), "\n")
		if err := os.WriteFile(csv, []byte(rows+head+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]Source{"memory": NewMemorySource(c), "binary": NewFileSource(bin), "csv": NewFileSource(csv)} {
			_, err := ReadAll(src)
			if err == nil || !strings.Contains(err.Error(), tc.axis) || !strings.Contains(err.Error(), "wrap positions into [0, L)") {
				t.Errorf("%s %s: ReadAll error %v, want one naming the %s", tc.name, name, err, tc.axis)
			}
			if _, err := Hash(src); err == nil || !strings.Contains(err.Error(), tc.axis) {
				t.Errorf("%s %s: Hash error %v, want one naming the %s", tc.name, name, err, tc.axis)
			}
		}
		c.Box.L = 0
		if _, err := ReadAll(NewMemorySource(c)); err != nil {
			t.Errorf("%s: open boundaries refused: %v", tc.name, err)
		}
	}
	c := Uniform(10, 60, 6)
	c.Galaxies[3].Pos.X = math.Copysign(0, -1)
	if _, err := Hash(NewMemorySource(c)); err != nil {
		t.Errorf("a coordinate at -0 refused: %v", err)
	}
}

func TestTable1Verbatim(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	if rows[0].Nodes != 128 || rows[0].Galaxies != 28800000 {
		t.Errorf("first row wrong: %+v", rows[0])
	}
	if rows[7].Nodes != 9636 || rows[7].BoxL != 3000 {
		t.Errorf("last row wrong: %+v", rows[7])
	}
	// Every row should be at (close to) the Outer Rim density.
	for _, r := range rows {
		density := float64(r.Galaxies) / (r.BoxL * r.BoxL * r.BoxL)
		if math.Abs(density-OuterRimDensity)/OuterRimDensity > 0.02 {
			t.Errorf("row %d density %v deviates from Outer Rim %v", r.Nodes, density, OuterRimDensity)
		}
	}
}

func TestScaledTable1Row(t *testing.T) {
	row := ScaledTable1Row(4, 1000)
	if row.Galaxies != 4000 {
		t.Errorf("Galaxies = %d", row.Galaxies)
	}
	density := float64(row.Galaxies) / (row.BoxL * row.BoxL * row.BoxL)
	if math.Abs(density-OuterRimDensity)/OuterRimDensity > 1e-9 {
		t.Errorf("density %v, want %v", density, OuterRimDensity)
	}
}

func TestGenerateTable1Dataset(t *testing.T) {
	row := ScaledTable1Row(2, 500)
	c := GenerateTable1Dataset(row, 11)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(c.Len()-row.Galaxies)) > float64(row.Galaxies)/10 {
		t.Errorf("generated %d galaxies, want ~%d", c.Len(), row.Galaxies)
	}
	if c.Box.L != row.BoxL {
		t.Errorf("box %v, want %v", c.Box.L, row.BoxL)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const mean = 6.0
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.15 {
		t.Errorf("poisson sample mean %v, want ~%v", got, mean)
	}
}

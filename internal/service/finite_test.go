package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"galactos"
)

// TestSubmitRejectsNonFiniteInput: a catalog with a NaN or infinite position,
// weight or box side is a bad request — 400 over HTTP, by path (a .glxc
// holding the bad record or header) and inline — and is refused in the hash
// pass, before the job exists: nothing is journaled, registered or counted.
// So are a periodic catalog with positions outside [0, L), a non-finite
// observer, a NaN timeout and a NaN GridCell (deprecated and unhashed, but
// still encoded in the journaled request).
func TestSubmitRejectsNonFiniteInput(t *testing.T) {
	s := newDurable(t, t.TempDir(), 8)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}
	base := s.jnl.Syncs()

	// Past the hash pass's first 2048-record block, so the index in the error
	// is a catalog index, not a block-local one.
	const bad = 2300
	cases := []struct {
		name string
		mut  func(*galactos.Galaxy)
	}{
		{"nan-position", func(g *galactos.Galaxy) { g.Pos.X = math.NaN() }},
		{"plus-inf-position", func(g *galactos.Galaxy) { g.Pos.Y = math.Inf(1) }},
		{"minus-inf-position", func(g *galactos.Galaxy) { g.Pos.Z = math.Inf(-1) }},
		{"nan-weight", func(g *galactos.Galaxy) { g.Weight = math.NaN() }},
		{"inf-weight", func(g *galactos.Galaxy) { g.Weight = math.Inf(-1) }},
	}
	for _, tc := range cases {
		req := hitRequest(3)
		req.Catalog = galactos.GenerateClustered(2500, 200, galactos.DefaultClusterParams(), 3)
		tc.mut(&req.Catalog.Galaxies[bad])

		// Inline through the Go entry point (JSON cannot carry the value).
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "galaxy 2300 has non-finite") {
			t.Errorf("%s inline: got %v, want ErrBadRequest naming galaxy 2300", tc.name, err)
		}

		// By path over HTTP.
		path := filepath.Join(t.TempDir(), "bad.glxc")
		if err := galactos.SaveCatalog(path, req.Catalog); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(galactos.Request{Path: path, Config: req.Config})
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "galaxy 2300 has non-finite") {
			t.Errorf("%s by path: HTTP %d %q, want 400 naming galaxy 2300", tc.name, code, msg)
		}
	}

	// A NaN box side yields no pair and an infinite one no run; neither has
	// a JSON spelling, so the binary header's L is the wire's way in.
	for _, l := range []float64{math.NaN(), math.Inf(1)} {
		req := hitRequest(3)
		req.Catalog.Box.L = l
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "non-finite box side") {
			t.Errorf("box side %v inline: got %v, want ErrBadRequest naming the box side", l, err)
		}
		path := filepath.Join(t.TempDir(), "bad-box.glxc")
		if err := galactos.SaveCatalog(path, req.Catalog); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(galactos.Request{Path: path, Config: req.Config})
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "non-finite box side") {
			t.Errorf("box side %v by path: HTTP %d %q, want 400 naming the box side", l, code, msg)
		}
	}
	// A periodic catalog with positions outside [0, L) runs to a wrong
	// answer (the engine does not wrap), so it is refused at the same pass:
	// inline over HTTP (finite, so JSON carries it) and by path.
	out := hitRequest(3)
	out.Catalog = galactos.GenerateUniform(400, 200, 3)
	for i := 0; i < 50; i++ {
		out.Catalog.Galaxies[7*i].Pos.X += 2 * out.Catalog.Box.L
	}
	path := filepath.Join(t.TempDir(), "outside.glxc")
	if err := galactos.SaveCatalog(path, out.Catalog); err != nil {
		t.Fatal(err)
	}
	for _, req := range []galactos.Request{out, {Path: path, Config: out.Config}} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "x coordinates span") {
			t.Errorf("positions outside the box, path %q: HTTP %d %q, want 400 naming the x axis", req.Path, code, msg)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(*galactos.Request)
	}{
		{"nan-observer", func(r *galactos.Request) { r.Config.LOS, r.Config.Observer.X = galactos.LOSRadial, math.NaN() }},
		{"inf-observer", func(r *galactos.Request) { r.Config.Observer.Z = math.Inf(1) }},
		{"nan-timeout", func(r *galactos.Request) { r.TimeoutSec = math.NaN() }},
		{"nan-gridcell", func(r *galactos.Request) { r.Config.GridCell = math.NaN() }},
	} {
		req := hitRequest(3)
		tc.mut(&req)
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
	}

	// Inline over HTTP: the nearest a JSON body gets to a non-finite number.
	good, err := json.Marshal(hitRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range []string{"NaN", "1e999", "-1e999"} {
		body := bytes.Replace(good, []byte(`"Weight":1`), []byte(`"Weight":`+lit), 1)
		if bytes.Equal(body, good) {
			t.Fatal("request JSON has no unit weight to replace")
		}
		if code, _ := post(body); code != http.StatusBadRequest {
			t.Errorf("inline weight %s over HTTP: HTTP %d, want 400", lit, code)
		}
	}

	if got := s.jnl.Syncs() - base; got != 0 {
		t.Errorf("the refused submissions cost %d journal fsyncs, want 0", got)
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Errorf("the refused submissions left jobs behind: %+v", jobs)
	}
	if st := s.Stats(); st.Submitted != 0 || st.CacheMisses != 0 {
		t.Errorf("the refused submissions were counted: %+v", st)
	}
}

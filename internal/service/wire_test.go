package service_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/journal"
	"galactos/internal/service"
)

// TestSubmitWireCompat drives bodies the canonical decode declines through
// the submit handler: each gets the status and message a json.Decoder
// reading the body itself gives it, and an accepted one the cache key of
// the canonical body it re-spells.
func TestSubmitWireCompat(t *testing.T) {
	svc, err := service.New(service.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	submit := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		if rec.Code == http.StatusAccepted {
			var st service.JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			return rec.Code, st.Key
		}
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		return rec.Code, e.Error
	}

	canonical, err := json.Marshal(testRequest(20, 4))
	if err != nil {
		t.Fatal(err)
	}
	code, key := submit(string(canonical))
	if code != http.StatusAccepted {
		t.Fatalf("canonical body: HTTP %d %q", code, key)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(canonical, &members); err != nil {
		t.Fatal(err)
	}
	cat, config, label := string(members["catalog"]), string(members["config"]), string(members["label"])
	tail := `,"config":` + config + `,"label":` + label + `}`
	indented, err := json.MarshalIndent(members, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Replace(cat, `"Weight":1}`, `"Weight":1e400}`, 1)
	for _, tc := range []struct {
		name, body string
		code       int
		msg        string
	}{
		{"whitespace", string(indented), http.StatusAccepted, key},
		{"reordered keys", `{"label":` + label + `,"config":` + config + `,"catalog":` + cat + `}`, http.StatusAccepted, key},
		{`a "Catalog" key`, `{"Catalog":` + cat + tail, http.StatusAccepted, key},
		{"trailing bytes", string(canonical) + `{"path":"x"}`, http.StatusAccepted, key},
		{"duplicate catalog member", `{"catalog":` + cat + `,"catalog":null` + tail, http.StatusBadRequest,
			"invalid request: galactos: request has no catalog (set Source, Catalog, or Path)"},
		{"case-variant duplicate", `{"catalog":` + cat + `,"CATALOG":{"Box":{"L":1}}` + tail, http.StatusBadRequest,
			"invalid request: reading catalog: catalog: x coordinates span"},
		{"1e400", `{"catalog":` + big + tail, http.StatusBadRequest,
			"decoding request: json: cannot unmarshal number 1e400 into Go struct field Galaxy.catalog.Galaxies.Weight of type float64"},
		{"truncated", string(canonical[:len(canonical)-1]), http.StatusBadRequest, "decoding request: unexpected EOF"},
		{"over maxRequestBytes", `{"catalog":` + cat + `,"label":"` + strings.Repeat("x", journal.MaxFrameBytes/16) + `"}`,
			http.StatusRequestEntityTooLarge, "request body exceeds 4194304 bytes: save the catalog where the server can read it and submit its path"},
	} {
		code, msg := submit(tc.body)
		if code != tc.code || !strings.HasPrefix(msg, tc.msg) {
			t.Errorf("%s: HTTP %d %q, want %d %q", tc.name, code, msg, tc.code, tc.msg)
		}
	}
}

// TestReplayDecodesEitherSpelling: an interrupted inline-catalog job whose
// submit record json.Marshal wrote, and the same job journaled with
// whitespace, replay to the same registry, and both re-run to done with
// the same bits.
func TestReplayDecodesEitherSpelling(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	req := testRequest(120, 11)
	canonical := submitFor(t, "job-000001", req)
	spaced := submitFor(t, "job-000002", req)
	var err error
	if spaced.Request, err = json.MarshalIndent(spaced.Request, "", " "); err != nil {
		t.Fatal(err)
	}
	spaced.Key = "spaced+" + canonical.Key // its own key, so it runs rather than hits
	writeJournal(t, filepath.Join(dir, "journal"), canonical, spaced)

	svc, cl, _ := startRestartable(t, service.Options{Workers: 1, StateDir: dir})
	if got := svc.Stats().RequeuedJobs; got != 2 {
		t.Fatalf("RequeuedJobs = %d, want 2", got)
	}
	var results []*galactos.Result
	for _, rec := range []journal.Record{canonical, spaced} {
		st, err := cl.Wait(ctx, rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone || st.Label != req.Label || st.Key != rec.Key {
			t.Fatalf("%s replayed to %+v", rec.ID, st)
		}
		res, err := cl.Result(ctx, rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if results[0].Pairs != results[1].Pairs || results[0].MaxAbsDiff(results[1]) != 0 {
		t.Errorf("the two spellings ran to different results")
	}
}

// BenchmarkServiceHitHTTP is a cache hit as service_mix's client sees it,
// over loopback HTTP: the submit of a 500-galaxy request already answered,
// carried inline or by Path, and the result fetch: ns/op is submit to
// result bytes in hand.
func BenchmarkServiceHitHTTP(b *testing.B) {
	const n = 500
	cfg := galactos.DefaultConfig()
	cfg.RMax, cfg.NBins, cfg.LMax, cfg.Workers, cfg.SelfCount = 8, 10, 10, 1, false
	cat := catalog.Uniform(n, math.Cbrt(n/catalog.OuterRimDensity), 1)
	path := filepath.Join(b.TempDir(), "cat.glxc")
	if err := catalog.SaveBinary(path, cat); err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(service.Options{Workers: 1, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(svc.Handler())
	b.Cleanup(func() {
		svc.Shutdown(context.Background())
		hs.Close()
	})
	cl := client.New(hs.URL, hs.Client())
	ctx := context.Background()
	serve := func(req galactos.Request) {
		st, err := cl.Submit(ctx, req)
		if err == nil && !st.State.Terminal() {
			st, err = cl.Wait(ctx, st.ID)
		}
		if err == nil {
			_, err = cl.ResultBytes(ctx, st.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		req  galactos.Request
	}{
		{"inline", galactos.Request{Catalog: cat, Config: cfg}},
		{"path", galactos.Request{Path: path, Config: cfg}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve(bc.req) // cold the first time, a hit after
			for b.Loop() {
				serve(bc.req)
			}
		})
	}
}

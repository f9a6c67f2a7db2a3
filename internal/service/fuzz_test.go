package service_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"galactos"
)

// FuzzSubmitRequest drives the submit path's decode and validation over
// arbitrary wire bytes: json.Decoder into a Request, then ResolveSource,
// ResolveBackend and Config.Fingerprint. Each step errors or succeeds and
// none panics. A request that fingerprints keeps its fingerprint when it is
// re-sent with only its workers field changed: the worker count is not part
// of the cache key. Seeded from TestSubmitValidation's valid request and its
// rejected mutations.
func FuzzSubmitRequest(f *testing.F) {
	seed := func(r galactos.Request) {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 3)
	}
	seed(testRequest(20, 3))
	for _, tc := range submitRejects {
		r := testRequest(20, 3)
		tc.mut(&r)
		seed(r)
	}
	f.Add([]byte(`{"path":"cat.glxc","config":{"RMax":40,"NBins":4,"LMax":2,"Scheduling":1,"workers":8}}`), 0)

	f.Fuzz(func(t *testing.T, body []byte, workers int) {
		var req galactos.Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		_, _ = req.ResolveSource()
		_, _ = req.ResolveBackend()
		fp, err := req.Config.Fingerprint()
		if err != nil {
			return
		}
		req.Config.Workers = workers
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("a decoded request does not re-encode: %v", err)
		}
		var again galactos.Request
		if err := json.NewDecoder(bytes.NewReader(wire)).Decode(&again); err != nil {
			t.Fatalf("a re-encoded request does not decode: %v", err)
		}
		if fp2, err := again.Config.Fingerprint(); err != nil || fp2 != fp {
			t.Fatalf("workers %d moved the fingerprint: %s -> %s (err %v)", workers, fp, fp2, err)
		}
	})
}

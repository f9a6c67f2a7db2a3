package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"galactos"
	"galactos/internal/service"
)

// FuzzSubmitRequest drives the submit path's decode and validation over
// arbitrary wire bytes: the submit handler's decode (the canonical inline
// catalog path, else json.Decoder), which must agree with json.Decoder
// alone, error for error and Request for Request, then the one request
// check (Resolve) and Config.Fingerprint. Each step errors or succeeds and
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
		req, err := service.DecodeSubmit(bytes.NewReader(body), int64(len(body)))
		var want galactos.Request
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(req, want) {
			t.Fatalf("the submit decode gave %+v, %v; json.Decoder %+v, %v", req, err, want, wantErr)
		}
		if err != nil {
			return
		}
		_, _ = req.Resolve()
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

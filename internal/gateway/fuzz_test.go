package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pstorm/internal/cluster"
	"pstorm/internal/engine"
	"pstorm/internal/hstore"
	"pstorm/internal/httperr"
)

// gatewayPaths is every path Handler serves, in the order
// FuzzGatewayRequest's path byte indexes them.
var gatewayPaths = []string{"/g/tune", "/g/whatif", "/g/match", "/g/submit", "/g/profiles"}

// writeErrStatus is the status writeErr answers each of its codes with.
var writeErrStatus = map[string]int{
	httperr.CodeInternal:    http.StatusInternalServerError,
	httperr.CodeDeadline:    http.StatusGatewayTimeout,
	httperr.CodeCanceled:    http.StatusGatewayTimeout,
	httperr.CodeNotFound:    http.StatusNotFound,
	httperr.CodeUnavailable: http.StatusServiceUnavailable,
}

// FuzzGatewayRequest sends one request — any method, a path from the
// list with any query, any tenant header, any body — to Handler() over
// an in-process store that holds tenant acme's profile
// wordcount-run0001, through an httptest.ResponseRecorder. Nothing may
// panic; a 2xx answer must be JSON and any other an httperr envelope,
// and a 5xx must carry a code writeErr maps, with writeErr's status.
// The seed corpus under testdata/fuzz holds one well-formed request per
// endpoint and one of each kind the gateway refuses.
func FuzzGatewayRequest(f *testing.F) {
	kv := hstore.Connect(hstore.NewServer())
	eng := engine.New(cluster.Default16(), 7)
	seedProfile(f, kv, "acme", eng)
	f.Fuzz(func(t *testing.T, method string, path uint8, rawQuery, tenant string, body []byte) {
		g, err := New(Options{KV: kv, Engine: eng, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body))
		req.Method = method
		req.URL.Path = gatewayPaths[int(path)%len(gatewayPaths)]
		req.URL.RawQuery = rawQuery
		if tenant != "" {
			req.Header[TenantHeader] = []string{tenant}
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)

		got := rec.Body.Bytes()
		if rec.Code/100 == 2 {
			if !json.Valid(got) {
				t.Fatalf("%q %s?%s: %d with a body that is not JSON: %q", method, req.URL.Path, rawQuery, rec.Code, got)
			}
			return
		}
		e, ok := httperr.Parse(got)
		if !ok {
			t.Fatalf("%q %s?%s: %d with a body that is not an httperr envelope: %q", method, req.URL.Path, rawQuery, rec.Code, got)
		}
		if rec.Code/100 == 5 && writeErrStatus[e.Code] != rec.Code {
			t.Fatalf("%q %s?%s: %d with code %q, which writeErr does not answer with that status", method, req.URL.Path, rawQuery, rec.Code, e.Code)
		}
	})
}

package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestDistClusterBodyRules checks that the cluster front door reads its
// body under the same rules as /v1/estimate: POST only, the body cap
// answered 413, and garbage 400.
func TestDistClusterBodyRules(t *testing.T) {
	node, err := NewNode(Config{
		Self: "n1", Peers: []Peer{{ID: "n1", Addr: "127.0.0.1:1"}}, Local: newEngine(t, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	node.Mount(mux)
	do := func(req *http.Request) (*httptest.ResponseRecorder, ClusterResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		var cr ClusterResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatalf("%s: response %q: %v", req.Method, rec.Body.Bytes(), err)
		}
		if cr.Status != rec.Code {
			t.Fatalf("%s: http status %d != body status %d", req.Method, rec.Code, cr.Status)
		}
		return rec, cr
	}
	const path = "/v1/estimate/cluster"
	good := `{"samples":[{"machine_id":"m","platform":"p","counters":[1,1]}]}`

	rec, _ := do(httptest.NewRequest(http.MethodGet, path, strings.NewReader(good)))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET: status %d Allow %q, want 405 with Allow: POST", rec.Code, rec.Header().Get("Allow"))
	}
	rec, _ = do(httptest.NewRequest(http.MethodPost, path, bytes.NewReader(make([]byte, serve.MaxBodyBytes+1))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", rec.Code)
	}
	rec, _ = do(httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"samples":[1e999]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", rec.Code)
	}
	rec, cr := do(httptest.NewRequest(http.MethodPost, path, strings.NewReader(good)))
	if rec.Code != http.StatusOK || cr.ClusterWatts != 13 {
		t.Errorf("good body: status %d watts %v, want 200 and 13", rec.Code, cr.ClusterWatts)
	}
}

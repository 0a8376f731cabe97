package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/registry"
)

// wireCases are the decoder's edge cases; each is checked against
// encoding/json by TestDecodeEstimateBodyMatchesJSON and seeds
// FuzzDecodeEstimateBody.
var wireCases = []struct{ name, body string }{
	{"plain", `{"samples":[{"machine_id":"m1","platform":"p","counters":[1,2.5,-3e-7],"metered_watts":120.25}],"deadline_ms":40,"priority":"batch"}`},
	{"batch", `{"requests":[{"samples":[{"machine_id":"m","platform":"p","counters":[1,2]}]},{"samples":[]}],"deadline_ms":5}`},
	{"whitespace", " \t\r\n{ \"samples\" : [ { \"counters\" : [ 1 , 2 ] } ] } \n"},
	{"repeated samples", `{"samples":[{"machine_id":"a","counters":[1,2,3]},{"machine_id":"b"}],"samples":[{"counters":[9]}]}`},
	{"repeated samples regrow", `{"samples":[{"machine_id":"a"},{"machine_id":"b","counters":[1,2]},{"machine_id":"c"}],"samples":[{}],"samples":[null,{"platform":"q"},null]}`},
	{"repeated counters regrow", `{"samples":[{"counters":[1,2,3,4,5],"counters":[6],"counters":[null,null,7,null]}]}`},
	{"repeated requests", `{"requests":[{"priority":"batch"},{"deadline_ms":3}],"requests":[{"samples":null}]}`},
	{"case-folded keys", `{"SAMPLES":[{"Machine_ID":"m","PLATFORM":"p","Counters":[1],"METERED_WATTS":2}],"Deadline_Ms":1,"pRiOrItY":"x","Requests":[]}`},
	{"unicode-folded key", "{\"\u017famples\":[{\"machine_id\":\"m\"}]}"},
	{"escaped key", `{"sampl\u0065s":[{"machine\u005fid":"m"}]}`},
	{"null fields", `{"samples":[{"machine_id":null,"platform":null,"counters":null,"metered_watts":null}],"deadline_ms":null,"priority":null}`},
	{"null after values", `{"samples":[{"machine_id":"m","counters":[1],"metered_watts":3,"counters":null,"metered_watts":null,"machine_id":null}],"priority":"b","priority":null}`},
	{"null samples", `{"samples":null}`},
	{"null requests", `{"requests":null,"deadline_ms":null}`},
	{"null elements", `{"samples":[null,{"counters":[null,1,null]}]}`},
	{"null batch elements", `{"requests":[null,{"samples":[null]}]}`},
	{"empty arrays", `{"samples":[{"counters":[]}],"requests":[]}`},
	{"empty samples after values", `{"samples":[{"machine_id":"m"}],"samples":[]}`},
	{"empty object", `{}`},
	{"top-level null", `null`},
	{"top-level array", `[]`},
	{"top-level string", `"samples"`},
	{"top-level number", `1`},
	{"invalid utf8", "{\"samples\":[{\"machine_id\":\"a\xff\",\"platform\":\"\xed\xa0\x80b\"}]}"},
	{"invalid utf8 key", "{\"samples\xff\":1,\"priority\":\"\xc3\"}"},
	{"surrogate pair", `{"samples":[{"machine_id":"\ud83d\ude00","platform":"😀"}]}`},
	{"lone surrogates", `{"priority":"\ud800x\udc00\ud800\u0041\ud83d\ud83d\ude00"}`},
	{"escapes", `{"priority":"\"\\\/\b\f\n\r\t\u0000\u00e9\uFFFD"}`},
	{"bad escape", `{"priority":"\x"}`},
	{"single-quote escape", `{"priority":"\'"}`},
	{"short unicode escape", `{"priority":"\u12"}`},
	{"control character", "{\"priority\":\"a\tb\"}"},
	{"unterminated string", `{"priority":"abc`},
	{"overflow", `{"samples":[{"counters":[1e999]}]}`},
	{"negative overflow", `{"deadline_ms":-1e400}`},
	{"underflow", `{"samples":[{"counters":[1e-400,4.9e-324,-0]}]}`},
	{"overflow in unknown member", `{"other":1e999}`},
	{"leading zero", `{"deadline_ms":01}`},
	{"bare minus", `{"deadline_ms":-}`},
	{"trailing dot", `{"deadline_ms":1.}`},
	{"leading dot", `{"deadline_ms":.5}`},
	{"plus sign", `{"deadline_ms":+1}`},
	{"bare exponent", `{"deadline_ms":1e}`},
	{"signed exponent", `{"deadline_ms":1E+2,"samples":[{"counters":[-0.0e-0,123456789012345678901234567890]}]}`},
	{"hex number", `{"deadline_ms":0x10}`},
	{"17 digits", `{"samples":[{"counters":[0.30000000000000004,1.7976931348623157e308,2.2250738585072014e-308]}]}`},
	{"string for number", `{"deadline_ms":"5"}`},
	{"number for string", `{"priority":5}`},
	{"object for counters", `{"samples":[{"counters":{}}]}`},
	{"string in counters", `{"samples":[{"counters":["1"]}]}`},
	{"bool for metered", `{"samples":[{"metered_watts":true}]}`},
	{"number for samples", `{"samples":3}`},
	{"array for sample", `{"samples":[[]]}`},
	{"batch type errors", `{"requests":[{"samples":[{"counters":["1"]}]}]}`},
	{"batch overflow", `{"requests":[{"samples":[{"counters":[1e999]}]}]}`},
	{"object for requests", `{"requests":{}}`},
	{"number in requests", `{"requests":[1]}`},
	{"unknown members", `{"x":{"a":[1,{"b":null}],"c":"\u00e9"},"samples":[{"y":[true,false],"counters":[1]}],"z":-0.5e3}`},
	{"invalid unknown member", `{"x":[1,]}`},
	{"invalid escape in unknown member", `{"x":"\q"}`},
	{"trailing garbage", `{"samples":[]} x`},
	{"trailing value", `{} {}`},
	{"trailing comma object", `{"samples":[],}`},
	{"trailing comma array", `{"samples":[{"counters":[1,]}]}`},
	{"missing colon", `{"samples" []}`},
	{"missing comma", `{"samples":[] "priority":"x"}`},
	{"unquoted key", `{samples:[]}`},
	{"truncated", `{"samples":[{"counters":[1,2`},
	{"bad literal", `{"samples":nul}`},
	{"literal junk", `{"samples":nullx}`},
	{"true literal", `{"x":true,"y":false,"z":null}`},
	{"empty body", ``},
	{"only space", "  \n"},
	{"bom", "\xef\xbb\xbf{}"},
	{"nesting 10000", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`},
	{"nesting 10001", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`},
	{"nesting 10001 objects", strings.Repeat(`{"x":`, 10001) + `1` + strings.Repeat(`}`, 10001)},
}

// checkWireDecode holds the decoder to its contract on one body, for
// both request types: it accepts exactly when json.Unmarshal does, and
// then produces the identical value, floats bit for bit.
func checkWireDecode(t *testing.T, body []byte) {
	t.Helper()
	var wantE, gotE EstimateRequest
	checkSame(t, "EstimateRequest", body,
		json.Unmarshal(body, &wantE), DecodeEstimateRequest(body, &gotE), &wantE, &gotE)
	var wantB, gotB BatchRequest
	checkSame(t, "BatchRequest", body,
		json.Unmarshal(body, &wantB), DecodeBatchRequest(body, &gotB), &wantB, &gotB)
}

func checkSame(t *testing.T, what string, body []byte, wantErr, gotErr error, want, got any) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s %q: encoding/json error %v, wire decoder error %v", what, body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(floatBits(want), floatBits(got)) {
		w, _ := json.Marshal(want)
		g, _ := json.Marshal(got)
		t.Fatalf("%s %q:\nencoding/json %s\nwire decoder  %s", what, body, w, g)
	}
}

// floatBits lists the bit patterns of every float in v, in order, so a
// comparison tells -0 from 0 where reflect.DeepEqual does not.
func floatBits(v any) []uint64 {
	var bits []uint64
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			bits = append(bits, math.Float64bits(v.Float()))
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return bits
}

func TestDecodeEstimateBodyMatchesJSON(t *testing.T) {
	for _, c := range wireCases {
		t.Run(c.name, func(t *testing.T) { checkWireDecode(t, []byte(c.body)) })
	}
	// The realistic shapes: bodies as the clients marshal them.
	rng := rand.New(rand.NewSource(1))
	checkWireDecode(t, backfillBody(t, rng, 3, 2, 253))
	one, err := json.Marshal(EstimateRequest{Samples: backfillSnapshot(rng, 12, 253), DeadlineMS: 250, Priority: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	checkWireDecode(t, one)
}

func FuzzDecodeEstimateBody(f *testing.F) {
	for _, c := range wireCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkWireDecode(t, body) })
}

// backfillSnapshot builds one snapshot of machines full-width samples
// with random counters, which json.Marshal writes at up to 17
// significant digits.
func backfillSnapshot(rng *rand.Rand, machines, width int) []SampleJSON {
	samples := make([]SampleJSON, machines)
	for m := range samples {
		c := make([]float64, width)
		for i := range c {
			c[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(10)))
		}
		samples[m] = SampleJSON{MachineID: fmt.Sprintf("m%02d", m), Platform: "Core2", Counters: c}
	}
	return samples
}

// backfillBody encodes a backfill batch: snapshots × machines × width.
func backfillBody(tb testing.TB, rng *rand.Rand, snapshots, machines, width int) []byte {
	br := BatchRequest{Requests: make([]EstimateRequest, snapshots)}
	for i := range br.Requests {
		br.Requests[i] = EstimateRequest{Samples: backfillSnapshot(rng, machines, width)}
	}
	body, err := json.Marshal(br)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeEstimateBody decodes a backfill-shaped batch, 20
// snapshots × 4 machines × 253 counters, with the wire decoder and with
// encoding/json as the reference.
func BenchmarkDecodeEstimateBody(b *testing.B) {
	body := backfillBody(b, rand.New(rand.NewSource(1)), 20, 4, 253)
	for _, c := range []struct {
		name   string
		decode func([]byte, *BatchRequest) error
	}{
		{"wire", DecodeBatchRequest},
		{"encoding_json", func(body []byte, req *BatchRequest) error { return json.Unmarshal(body, req) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req BatchRequest
				if err := c.decode(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// handlerStatuses is the documented status list of the estimate
// endpoints.
var handlerStatuses = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusMethodNotAllowed: true,
	http.StatusRequestEntityTooLarge: true, http.StatusMisdirectedRequest: true,
	http.StatusTooManyRequests: true, http.StatusServiceUnavailable: true,
	http.StatusGatewayTimeout: true,
}

// newFuzzMux serves a two-counter registry without a listener, for
// driving handlers through httptest.
func newFuzzMux(tb testing.TB) http.Handler {
	reg := registry.New()
	if err := reg.Add("v1", mkLinear(tb, 10), registry.Meta{}); err != nil {
		tb.Fatal(err)
	}
	s, err := New(reg, Config{Names: testNames})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return NewMux(s)
}

func FuzzEstimateHandler(f *testing.F) {
	for _, c := range wireCases {
		f.Add(c.body, false)
		f.Add(c.body, true)
	}
	f.Add(`{"samples":[{"machine_id":"m","platform":"p","counters":[1,2]}]}`, false)
	f.Add(`{"requests":[{"samples":[{"machine_id":"m","platform":"p","counters":[1,2]}]}]}`, true)
	f.Add(`{"samples":[{"machine_id":"m","platform":"p","counters":[1,2],"metered_watts":15}],"deadline_ms":1e-9}`, false)
	mux := newFuzzMux(f)
	f.Fuzz(func(t *testing.T, body string, batch bool) {
		path := "/v1/estimate"
		if batch {
			path = "/v1/estimate/batch"
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if !handlerStatuses[rec.Code] {
			t.Fatalf("POST %s %q: status %d is not on the documented list", path, body, rec.Code)
		}
	})
}

func TestEstimateEndpointsRejectNonPost(t *testing.T) {
	mux := newFuzzMux(t)
	bodies := map[string]string{
		"/v1/estimate":       `{"samples":[{"machine_id":"m","platform":"p","counters":[1,2]}]}`,
		"/v1/estimate/batch": `{"requests":[{"samples":[{"machine_id":"m","platform":"p","counters":[1,2]}]}]}`,
	}
	for path, body := range bodies {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
				t.Errorf("%s %s: status %d Allow %q, want 405 with Allow: POST", method, path, rec.Code, rec.Header().Get("Allow"))
			}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST %s: status %d, want 200 (body %s)", path, rec.Code, rec.Body.Bytes())
		}
	}
}

func TestEstimateEndpointsRejectOversizeBody(t *testing.T) {
	mux := newFuzzMux(t)
	big := bytes.Repeat([]byte(" "), MaxBodyBytes+1)
	for _, path := range []string{"/v1/estimate", "/v1/estimate/batch"} {
		// Declared length over the cap: refused before reading.
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with Content-Length %d: status %d, want 413", path, len(big), rec.Code)
		}
		// Unknown length (chunked): the reader hits the cap.
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(big))
		req.ContentLength = -1
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s chunked over the cap: status %d, want 413", path, rec.Code)
		}
	}
}

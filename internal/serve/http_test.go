package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"credo/internal/bp"
	"credo/internal/telemetry"
)

// newHTTPServer stands up the query plane over a grid resident with a
// Metrics sink attached, returning the test server and the sink.
func newHTTPServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *telemetry.Metrics) {
	t.Helper()
	m := &telemetry.Metrics{}
	cfg.Options.Probe = m
	s, _ := newGridServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m
}

// wireAnswer is a query answer as a client decodes it.
type wireAnswer struct {
	Engine    string               `json:"engine"`
	Warm      bool                 `json:"warm"`
	Converged bool                 `json:"converged"`
	Beliefs   map[string][]float32 `json:"beliefs"`
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	_, ts, m := newHTTPServer(t, Config{})

	// Liveness and registry listing.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var infos []graphInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "grid" || infos[0].Nodes != 256 {
		t.Fatalf("graphs listing = %+v", infos)
	}

	// First query: cold, converged, full belief map, answered by the
	// solo path's cold selection — the daemon does not batch.
	hr, body := postJSON(t, ts.URL+"/v1/query", `{"evidence":[{"node":"136","state":1}]}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", hr.StatusCode, body)
	}
	if hr.ContentLength != int64(len(body)) || !bytes.HasSuffix(body, []byte("}\n")) {
		t.Fatalf("answer body: Content-Length %d for %d bytes, want one JSON document and a newline",
			hr.ContentLength, len(body))
	}
	var qr wireAnswer
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("response is not valid JSON: %v\n%s", err, body)
	}
	if qr.Warm || !qr.Converged || len(qr.Beliefs) != 256 {
		t.Fatalf("first query: warm=%v converged=%v beliefs=%d", qr.Warm, qr.Converged, len(qr.Beliefs))
	}
	if qr.Engine == "" || qr.Engine == EngineBatch {
		t.Fatalf("first auto query answered by engine %q, want a solo engine", qr.Engine)
	}

	// Second query: warm path over HTTP.
	hr, body = postJSON(t, ts.URL+"/v1/query?graph=grid&engine=residual",
		`{"evidence":[{"node":"136","state":1},{"node":"40","state":0}],"nodes":["40","136"]}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("warm query = %d: %s", hr.StatusCode, body)
	}
	var warm wireAnswer
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || !warm.Converged || len(warm.Beliefs) != 2 {
		t.Fatalf("warm query: warm=%v converged=%v beliefs=%d", warm.Warm, warm.Converged, len(warm.Beliefs))
	}

	// Third query, auto engine again: it resumes the snapshot on the
	// solo warm path.
	hr, body = postJSON(t, ts.URL+"/v1/query",
		`{"evidence":[{"node":"136","state":1},{"node":"40","state":0},{"node":"41","state":1}],"nodes":["41"]}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("warm auto query = %d: %s", hr.StatusCode, body)
	}
	var auto wireAnswer
	if err := json.Unmarshal(body, &auto); err != nil {
		t.Fatal(err)
	}
	if !auto.Warm || !auto.Converged || auto.Engine != EngineResidual {
		t.Fatalf("warm auto query: warm=%v converged=%v engine=%q, want warm residual",
			auto.Warm, auto.Converged, auto.Engine)
	}

	// The Metrics sink saw all three queries and two warm starts.
	var text bytes.Buffer
	m.WriteText(&text)
	for _, want := range []string{"credo_serve_queries_total 3", "credo_serve_warm_total 2"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics text misses %q:\n%s", want, text.String())
		}
	}
}

// TestOptionsProbeSeesEngineAndServeEvents: the probe set in
// Config.Options is the server's one probe, so it receives the engine's
// own run events as well as the serving layer's query event.
func TestOptionsProbeSeesEngineAndServeEvents(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	s, _ := newGridServer(t, Config{Options: bp.Options{Probe: rec}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	hr, body := postJSON(t, ts.URL+"/v1/query?engine=node", `{"evidence":[{"node":"0","state":1}]}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", hr.StatusCode, body)
	}
	var runEnd, query bool
	for _, e := range rec.Events() {
		runEnd = runEnd || (e.Kind == telemetry.KindRunEnd && e.Engine == "bp.node")
		query = query || (e.Kind == telemetry.KindServe && e.Engine == "serve.query")
	}
	if !runEnd || !query {
		t.Errorf("Options.Probe saw bp.node run_end=%v, serve.query=%v; want both", runEnd, query)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts, _ := newHTTPServer(t, Config{})
	cases := []struct {
		name, url, body string
		status          int
	}{
		{"unknown graph", "/v1/query?graph=nope", `{}`, http.StatusNotFound},
		{"unknown engine", "/v1/query?engine=openmp", `{}`, http.StatusBadRequest},
		{"malformed body", "/v1/query", `{"evidence":`, http.StatusBadRequest},
		{"unknown node", "/v1/query", `{"evidence":[{"node":"bogus","state":0}]}`, http.StatusBadRequest},
		{"duplicate evidence", "/v1/query",
			`{"evidence":[{"node":"0","state":0},{"node":"0","state":1}]}`, http.StatusBadRequest},
		{"bad load spec", "/v1/load?graph=x", `{}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hr, body := postJSON(t, ts.URL+tc.url, tc.body)
			if hr.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", hr.StatusCode, tc.status, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body is not {\"error\":...}: %s", body)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/graphs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph detail = %d", resp.StatusCode)
	}
}

func TestHTTPLoadEndpointSprinkler(t *testing.T) {
	m := &telemetry.Metrics{}
	s := New(Config{MRF: true, Options: bp.Options{Probe: m}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	hr, body := postJSON(t, ts.URL+"/v1/load?graph=sprinkler",
		`{"bif":`+strconv.Quote(sprinklerPath())+`}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("load = %d: %s", hr.StatusCode, body)
	}
	var info graphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "sprinkler" || info.Nodes != 4 {
		t.Fatalf("load info = %+v", info)
	}

	hr, body = postJSON(t, ts.URL+"/v1/query",
		`{"evidence":[{"node":"wetgrass","state":1}],"nodes":["rain"]}`)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("query after load = %d: %s", hr.StatusCode, body)
	}
	var qr wireAnswer
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if _, ok := qr.Beliefs["rain"]; !ok {
		t.Fatalf("rain posterior missing: %s", body)
	}
}

// TestHTTPShedsWithRetryAfter saturates the admission gate and locks the
// load-shedding contract: 429, Retry-After, JSON error body, and the
// shed counter on the metrics sink.
func TestHTTPShedsWithRetryAfter(t *testing.T) {
	s, ts, m := newHTTPServer(t, Config{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 7 * time.Second})

	// Fill the slot and the waiting line directly — the gate is the unit
	// under test; occupying it with real long-running queries would make
	// the test timing-dependent.
	s.adm.slots <- struct{}{}
	s.adm.waiting.Add(1)
	defer func() {
		<-s.adm.slots
		s.adm.waiting.Add(-1)
	}()

	hr, body := postJSON(t, ts.URL+"/v1/query", `{}`)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query = %d: %s", hr.StatusCode, body)
	}
	if got := hr.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
		t.Fatalf("shed body is not {\"error\":...}: %s", body)
	}

	var text bytes.Buffer
	m.WriteText(&text)
	if !strings.Contains(text.String(), "credo_serve_shed_total 1") {
		t.Errorf("metrics text misses the shed counter:\n%s", text.String())
	}
}

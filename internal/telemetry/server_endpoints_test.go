package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestServerEndpointsUnderConcurrentEmission scrapes every ops-plane
// endpoint while emitters, tracers and the flight recorder write at full
// tilt — the steady state of a loaded daemon. Run under -race in CI,
// this is the lock-discipline gate for the whole observability surface:
// histogram lazy-init, histVec map growth, trace pooling and the
// lock-free flight ring all cross goroutines here.
func TestServerEndpointsUnderConcurrentEmission(t *testing.T) {
	var m Metrics
	flight := NewFlightRecorder(16)
	tc := NewTracer(1)
	tc.Metrics = &m
	tc.Flight = flight
	tc.SlowNs = 0 // flag every trace → constant flight captures

	srv, err := NewServer("127.0.0.1:0", &m, flight)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := tc.Start("query")
				sp := tr.Span("run")
				tr.Emit(Event{Kind: KindIteration, Engine: "relax", Iter: int32(i), Delta: 0.5})
				sp.End()
				tr.SetQuery("relax", "vanilla", i%2 == 0)
				tr.Finish()
				m.Emit(Event{Kind: KindServe, Engine: "serve.query", Impl: "relax",
					Warm: i%2 == 0, BusyNs: int64(i%1000+1) * 1000})
				m.Emit(Event{Kind: KindServe, Engine: "serve.batch",
					Active: int64(i%8 + 1), Items: 8})
				m.Emit(Event{Kind: KindServe, Engine: "serve.shed",
					RetryAfterSec: 1, Waiting: int64(i % 4)})
			}
		}(w)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	for i := 0; i < 20; i++ {
		metrics := string(get("/metrics"))
		for _, want := range []string{
			"credo_serve_latency_seconds_bucket",
			"credo_serve_stage_seconds_bucket",
		} {
			if i > 10 && !strings.Contains(metrics, want) {
				t.Errorf("scrape %d missing %q", i, want)
			}
		}
		var vars map[string]json.RawMessage
		if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
			t.Fatalf("/debug/vars scrape %d: %v", i, err)
		}
		var dump struct {
			Captured int64           `json:"captured"`
			Records  []*FlightRecord `json:"records"`
		}
		if err := json.Unmarshal(get("/debug/flight"), &dump); err != nil {
			t.Fatalf("/debug/flight scrape %d: %v", i, err)
		}
		for _, r := range dump.Records {
			if r.Kind != "flight" {
				t.Fatalf("torn flight record: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()

	if flight.Captured() == 0 {
		t.Error("no flight records captured under load")
	}
}

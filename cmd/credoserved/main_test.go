package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sprinklerPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "..", "internal", "bif", "testdata", "sprinkler.bif")
}

func TestParseLoad(t *testing.T) {
	for _, tc := range []struct {
		in, name string
		ok       bool
	}{
		{"g=bif:/p/net.bif", "g", true},
		{"g=xmlbif:/p/net.xml", "g", true},
		{"g=mtx:/p/a.mtx,/p/b.mtx", "g", true},
		{"no-equals", "", false},
		{"=bif:/p", "", false},
		{"g=bif:", "", false},
		{"g=mtx:/p/only-nodes", "", false},
		{"g=tar:/p", "", false},
	} {
		name, _, err := parseLoad(tc.in)
		if tc.ok && (err != nil || name != tc.name) {
			t.Errorf("parseLoad(%q) = %q, %v", tc.in, name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseLoad(%q) accepted", tc.in)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := build([]string{"-load", "g=bif:/does/not/exist.bif"}, &out); err == nil {
		t.Error("build accepted a missing BIF file")
	}
	if _, err := build([]string{"-bogus"}, &out); err == nil {
		t.Error("build accepted an unknown flag")
	}
}

// TestQueryServerTimeouts pins the query plane's connection bounds: a
// header timeout and an idle timeout, and no read or write deadline that
// would cut a long cold query.
func TestQueryServerTimeouts(t *testing.T) {
	hs := newQueryServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 10*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; want 10s and 2m", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want none", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestServeEndToEnd boots the daemon on an ephemeral port with the
// sprinkler network and a JSONL trace, runs a cold and then a warm query
// through real HTTP, and shuts down on context cancel — the in-process
// twin of the CI server-smoke job.
func TestServeEndToEnd(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "serve.jsonl")
	var out bytes.Buffer
	app, err := build([]string{
		"-listen", "127.0.0.1:0",
		"-load", "sprinkler=bif:" + sprinklerPath(),
		"-trace-out", trace,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- app.run(ctx, func(addr string) { addrc <- addr }) }()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v\n%s", err, out.String())
	}

	query := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query = %d: %s", resp.StatusCode, data)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, data)
		}
		return m
	}

	cold := query(`{"evidence":[{"node":"wetgrass","state":1}],"nodes":["rain"]}`)
	if cold["warm"] != false || cold["converged"] != true {
		t.Fatalf("cold query = %v", cold)
	}
	warm := query(`{"evidence":[{"node":"wetgrass","state":1},{"node":"cloudy","state":0}],"nodes":["rain"]}`)
	if warm["warm"] != true || warm["converged"] != true {
		t.Fatalf("warm query = %v", warm)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine":"serve.load"`, `"engine":"serve.query"`, `"warm":true`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace misses %s:\n%s", want, data)
		}
	}
	if !strings.Contains(out.String(), "loaded sprinkler: 4 nodes") {
		t.Errorf("startup log misses the load line:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"time"
)

// requestTimeout bounds one HTTP exchange; a request that fails is
// charged this latency, so it misses every latency limit.
const requestTimeout = 10 * time.Second

// outcome is what the load generator saw for one scheduled request.
type outcome struct {
	Sent     bool
	Status   int
	Body     []byte
	Latency  time.Duration // due time until the body was read
	Late     time.Duration // how late the generator woke for the due time
	Slept    bool          // the generator was idle and slept until due
	Err      error
	Probe    int    // probe status (updates)
	PBody    []byte // probe body (updates)
	Visible  time.Duration
	ProbeErr error
}

// client is one keep-alive connection's worth of HTTP client: requests
// on it are serialized, so each stream holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// drive runs the open loop: queries on one connection, updates and
// their probes on the other (or everything on one when serial), each
// request sent at its due time (or as soon as its connection frees up)
// and timed from that due time. Requests still unsent at the deadline
// are abandoned as failed.
func drive(addr, engine string, serial bool, sc *schedule, start time.Time, deadline time.Time) []outcome {
	qurl := "http://" + addr + "/v1/query"
	if engine != "" {
		qurl += "?engine=" + engine
	}
	uurl := "http://" + addr + "/v1/update"
	out := make([]outcome, len(sc.Requests))

	run := func(c *http.Client, updates bool) {
		for i := range sc.Requests {
			r := &sc.Requests[i]
			if !serial && r.Update != updates {
				continue
			}
			o := &out[i]
			due := start.Add(r.Due)
			if now := time.Now(); now.Before(due) {
				time.Sleep(due.Sub(now))
				o.Slept = true
				o.Late = time.Since(due)
			}
			if time.Now().After(deadline) {
				continue
			}
			o.Sent = true
			url := qurl
			if r.Update {
				url = uurl
			}
			o.Status, o.Body, o.Err = post(c, url, r.Body)
			o.Latency = time.Since(due)
			if r.Update && o.Err == nil && o.Status == http.StatusOK {
				o.Probe, o.PBody, o.ProbeErr = post(c, qurl, r.Probe)
				o.Visible = time.Since(due)
			}
		}
	}

	streams := []struct {
		client  *http.Client
		updates bool
	}{{newClient(), false}, {newClient(), true}}
	if serial {
		streams = streams[:1]
	}
	var wg sync.WaitGroup
	for _, c := range streams {
		// Open the keep-alive connection before the clock starts.
		resp, err := c.client.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		wg.Add(1)
		go func(c *http.Client, updates bool) {
			defer wg.Done()
			defer c.CloseIdleConnections()
			run(c, updates)
		}(c.client, c.updates)
	}
	wg.Wait()
	return out
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// loadGen is a single-process open-loop generator for the job server:
// requests fall due on a fixed schedule whether or not earlier ones have
// finished, at most maxInFlight are outstanding, and each request is timed
// from when it was due, so a stall also counts against the requests queued
// behind it.
type loadGen struct {
	base        string
	client      *http.Client
	maxInFlight int
}

// newLoadGen keeps at most maxInFlight connections to the server, all of
// them reused, so a steady open loop does not churn sockets.
func newLoadGen(base string, maxInFlight int) *loadGen {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxInFlight,
		MaxConnsPerHost:     maxInFlight,
	}}
	return &loadGen{base: base, client: client, maxInFlight: maxInFlight}
}

// close drops the generator's idle connections.
func (g *loadGen) close() { g.client.CloseIdleConnections() }

// request is one job's client-side record. Times are taken when a line of
// the NDJSON stream arrives.
type request struct {
	due, sent         time.Time
	accepted, started time.Time
	end               time.Time // terminal event received
	reportBytes       int
	// err is why the request failed: a transport error, a refusal (503 or
	// any other non-200 status), a broken stream, a terminal error event,
	// or a report the check rejected.
	err error
}

// job is one request body and the check its terminal report must pass.
type job struct {
	body  []byte
	check func(*repro.Report) error
}

// run sends n requests, the k-th due at k/rate seconds after the start,
// carrying jobAt(k), and returns their records once all have ended.
func (g *loadGen) run(ctx context.Context, n int, rate float64, jobAt func(k int) job) []request {
	reqs := make([]request, n)
	slots := make(chan struct{}, g.maxInFlight) // semaphore: requests in flight
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		r := &reqs[k]
		r.due, r.sent = due, time.Now()
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			defer func() { <-slots }()
			g.do(ctx, j, r)
		}(jobAt(k))
	}
	wg.Wait()
	return reqs
}

// do posts one job and consumes its event stream into r. The report is
// checked as soon as it arrives and then dropped, so a long run does not
// hold every answer in memory.
func (g *loadGen) do(ctx context.Context, j job, r *request) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/solve", bytes.NewReader(j.body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		r.err = fmt.Errorf("transport: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		r.err = fmt.Errorf("refused: %s", resp.Status)
		return
	}
	br := bufio.NewReader(resp.Body)
	// The terminal event is the stream's last line; reading on to the end
	// of the body lets the transport reuse the connection.
	defer func() { _, _ = io.Copy(io.Discard, br) }()
	for {
		line, readErr := br.ReadBytes('\n')
		now := time.Now()
		if len(bytes.TrimSpace(line)) > 0 {
			var ev server.Event
			if err := json.Unmarshal(line, &ev); err != nil {
				r.err = fmt.Errorf("bad event line: %w", err)
				return
			}
			switch ev.Type {
			case server.EventAccepted:
				r.accepted = now
			case server.EventStarted:
				r.started = now
			case server.EventReport:
				r.end, r.reportBytes = now, len(line)
				if ev.Report == nil {
					r.err = errors.New("report event without a report")
				} else {
					r.err = j.check(ev.Report)
				}
				return
			case server.EventError:
				r.end, r.err = now, fmt.Errorf("job failed: %s", ev.Error)
				return
			}
		}
		if readErr != nil {
			r.err = fmt.Errorf("stream ended without a terminal event: %w", readErr)
			return
		}
	}
}

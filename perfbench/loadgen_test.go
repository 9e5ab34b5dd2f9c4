package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

// fakeServer answers /v1/solve like the job server after a fixed delay,
// and records the most requests it ever saw in flight. A body of "refuse"
// gets a 503, "hangup" a dropped connection.
type fakeServer struct {
	delay               time.Duration
	inFlight, maxFlight atomic.Int64
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		old := f.maxFlight.Load()
		if now <= old || f.maxFlight.CompareAndSwap(old, now) {
			break
		}
	}
	var body string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch body {
	case "refuse":
		http.Error(w, "job queue full", http.StatusServiceUnavailable)
		return
	case "hangup":
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(server.Event{Type: server.EventAccepted, JobID: "job-1"})
	w.(http.Flusher).Flush()
	time.Sleep(f.delay)
	_ = enc.Encode(server.Event{Type: server.EventStarted, JobID: "job-1"})
	_ = enc.Encode(server.Event{Type: server.EventReport, JobID: "job-1",
		Report: &repro.Report{Engine: "model", X: []float64{1, 2}, Converged: true}})
}

func quoted(s string) []byte { b, _ := json.Marshal(s); return b }

func TestLoadGenTimesFromDueTime(t *testing.T) {
	const delay = 20 * time.Millisecond
	fs := &fakeServer{delay: delay}
	ts := httptest.NewServer(fs)
	defer ts.Close()
	g := newLoadGen(ts.URL, 2)
	defer g.close()

	// 200/s against a server that completes at most 2 per 20 ms: the
	// schedule outruns it, so requests queue behind the in-flight cap.
	checked := atomic.Int64{}
	ok := job{body: quoted("solve"), check: func(rep *repro.Report) error {
		checked.Add(1)
		if len(rep.X) != 2 {
			return errors.New("bad report")
		}
		return nil
	}}
	reqs := g.run(context.Background(), 12, 200, func(int) job { return ok })

	if m := fs.maxFlight.Load(); m > 2 {
		t.Errorf("server saw %d requests in flight, cap is 2", m)
	}
	if checked.Load() != 12 {
		t.Errorf("%d reports checked, want 12", checked.Load())
	}
	lastLate := time.Duration(0)
	for k, r := range reqs {
		if r.err != nil {
			t.Fatalf("request %d: %v", k, r.err)
		}
		if want := time.Duration(k) * 5 * time.Millisecond; r.due.Sub(reqs[0].due) != want {
			t.Errorf("request %d due %v after the first, want %v", k, r.due.Sub(reqs[0].due), want)
		}
		late := r.sent.Sub(r.due)
		if late < 0 {
			t.Errorf("request %d sent before it was due", k)
		}
		if r.end.Sub(r.due) < late+delay {
			t.Errorf("request %d: latency %v from due time is below send delay %v plus service %v",
				k, r.end.Sub(r.due), late, delay)
		}
		if r.accepted.IsZero() || r.started.Before(r.accepted) || r.end.Before(r.started) {
			t.Errorf("request %d: event times out of order: %+v", k, r)
		}
		lastLate = late
	}
	// The last request was due at 55 ms but could not be sent before the
	// fifth pair of 20 ms jobs had finished.
	if lastLate < 30*time.Millisecond {
		t.Errorf("send delay of the last request %v, want at least 30ms", lastLate)
	}
}

func TestLoadGenCountsRefusalsAndTransportErrors(t *testing.T) {
	ts := httptest.NewServer(&fakeServer{})
	g := newLoadGen(ts.URL, 2)
	defer g.close()
	bodies := []string{"refuse", "hangup", "solve"}
	reqs := g.run(context.Background(), 3, 1000, func(k int) job {
		return job{body: quoted(bodies[k]), check: func(*repro.Report) error { return nil }}
	})
	if reqs[0].err == nil || reqs[1].err == nil {
		t.Errorf("503 and dropped connection must fail: %v, %v", reqs[0].err, reqs[1].err)
	}
	if reqs[2].err != nil {
		t.Errorf("good request failed: %v", reqs[2].err)
	}
	ts.Close()
	dead := g.run(context.Background(), 1, 1000, func(int) job {
		return job{body: quoted("solve"), check: func(*repro.Report) error { return nil }}
	})
	if dead[0].err == nil {
		t.Error("request to a closed server did not fail")
	}
}

// A solve that errors is a failure, counted once and never retried.
func TestClosedLoopCountsErrorsWithoutRetry(t *testing.T) {
	// At pace 100 a 50 ms window holds exactly one burst.
	c := closedLoop{engine: repro.EngineModel, maxDev: 1, pace: 100}
	broken := instance{spec: repro.Spec{}} // no operator: Solve errors
	w := c.measure([]instance{broken}, 50*time.Millisecond)
	if w.attempted != paceBurst || w.failed != paceBurst || w.wrong != 0 || w.firstErr == nil {
		t.Errorf("attempted %d, failed %d, wrong %d, err %v; want %d attempts, all failed, none wrong",
			w.attempted, w.failed, w.wrong, w.firstErr, paceBurst)
	}
}

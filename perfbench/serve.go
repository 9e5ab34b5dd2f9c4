package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/server"
)

// jobKind is one entry of the served job rotation.
type jobKind struct {
	scenario string
	engine   string
	n        int
	// evaluators is how many goroutines of the engine evaluate the
	// operator at once (the simulator evaluates on one goroutine).
	evaluators int
	maxDev     float64
}

// serveWorkload drives an in-process job server with an open-loop
// generator.
type serveWorkload struct {
	kinds []jobKind
	// rate is the offered load in jobs per second: about a third of the
	// 626-674 jobs/s a quiet 2-CPU host completes with two requests in
	// flight, so the generator keeps its schedule when neighbours on a
	// shared host halve that capacity.
	rate          float64
	maxInFlight   int
	serverWorkers int
	engineWorkers int
	// distinct is how many distinct job instances (and seeds) a run
	// cycles through; each gets its reference fixed point in set-up.
	distinct int
}

var serveMix = serveWorkload{
	kinds: []jobKind{
		{scenario: "lasso", engine: "model", n: 32, evaluators: 1, maxDev: 1e-7},
		{scenario: "ridge", engine: "shared", n: 32, evaluators: 2, maxDev: 1e-7},
		{scenario: "routing", engine: "message", n: 64, evaluators: 2, maxDev: 1e-7},
		{scenario: "logistic", engine: "sim", n: 16, evaluators: 1, maxDev: 1e-6},
	},
	rate:          200,
	maxInFlight:   2,
	serverWorkers: 2,
	engineWorkers: 2,
	distinct:      256,
}

// servedJob is one job of the rotation: its kind, request body and oracle.
type servedJob struct {
	kind jobKind
	req  server.JobRequest
	body []byte
	ref  []float64
}

// jobList derives the run's jobs from seed: kinds round-robin, each job
// with its own seed. It returns the summed build and reference times.
func (s serveWorkload) jobList(seed uint64) (jobs []servedJob, buildNS, refNS int64, err error) {
	for k := 0; k < s.distinct; k++ {
		kind := s.kinds[k%len(s.kinds)]
		req := server.JobRequest{
			Scenario: kind.scenario,
			N:        kind.n,
			Seed:     mix(seed, uint64(k)),
			Engine:   kind.engine,
			Workers:  s.engineWorkers,
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		inst, err := repro.BuildScenarioTuned(req.Scenario, req.N, req.Seed, repro.DefaultTuning())
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		ref, err := reference(inst.Spec)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s seed %d: %w", req.Scenario, req.Seed, err)
		}
		buildNS += int64(t1.Sub(t0))
		refNS += int64(time.Since(t1))
		jobs = append(jobs, servedJob{kind: kind, req: req, body: body, ref: ref})
	}
	return jobs, buildNS, refNS, nil
}

// serveFixture is a set-up's product: a listening server and the job
// rotation with its oracles.
type serveFixture struct {
	srv         *server.Server
	gen         *loadGen
	jobs        []servedJob
	buildNS     int64
	referenceNS int64
}

func (s serveWorkload) build(seed uint64) (*serveFixture, error) {
	jobs, buildNS, refNS, err := s.jobList(seed)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0", Workers: s.serverWorkers})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	fx := &serveFixture{
		srv:         srv,
		gen:         newLoadGen("http://"+srv.Addr(), s.maxInFlight),
		jobs:        jobs,
		buildNS:     buildNS,
		referenceNS: refNS,
	}
	// Warm-up: one job of each kind, in turn, must come back right.
	for i := range s.kinds {
		var r request
		fx.gen.do(context.Background(), jobs[i].job(), &r)
		if err := r.err; err != nil {
			fx.close()
			return nil, fmt.Errorf("warm-up %s job: %w", jobs[i].kind.scenario, err)
		}
	}
	return fx, nil
}

// close shuts the server down and waits for its goroutines.
func (fx *serveFixture) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fx.gen.close()
	_ = fx.srv.Shutdown(ctx) // a drain past the deadline leaves nothing to report
}

// job returns the request body and the oracle check of j.
func (j servedJob) job() job {
	return job{body: j.body, check: func(rep *repro.Report) error {
		return verify(rep, j.ref, j.kind.maxDev)
	}}
}

// serveWindow is one measured open-loop stretch with its verdicts.
type serveWindow struct {
	reqs              []request
	elapsed           time.Duration
	lat               []sample  // verified jobs, by due time
	late              []float64 // ms, every job
	attempted, failed int
	wrong             int
	firstErr          error
}

func (s serveWorkload) measure(fx *serveFixture, dur time.Duration) *serveWindow {
	n := int(dur.Seconds() * s.rate)
	if n < 1 {
		n = 1
	}
	start := time.Now()
	reqs := fx.gen.run(context.Background(), n, s.rate, func(k int) job {
		return fx.jobs[k%len(fx.jobs)].job()
	})
	w := &serveWindow{reqs: reqs, elapsed: time.Since(start), attempted: len(reqs)}
	for k := range reqs {
		r := &reqs[k]
		w.late = append(w.late, ms(r.sent.Sub(r.due)))
		if r.err == nil {
			w.lat = append(w.lat, sample{at: r.due.Sub(start), ms: ms(r.end.Sub(r.due))})
			continue
		}
		w.failed++
		if errors.Is(r.err, errWrong) {
			w.wrong++
		}
		if w.firstErr == nil {
			w.firstErr = r.err
		}
	}
	return w
}

// behind reports whether the generator could not keep its schedule: a
// 90th-percentile send delay of ten inter-arrival gaps means ten jobs were
// waiting for a slot, a backlog the offered rate should never build at a
// third of the server's capacity.
func (s serveWorkload) behind(w *serveWindow) bool {
	return quantile(w.late, 0.9) > 10*1000/s.rate
}

func (s serveWorkload) report(o options, label string, w *serveWindow) {
	fmt.Fprintf(o.log, "serve %s: %d jobs at %.0f/s in %.2fs (%d failed), p50 %.3f ms, send delay p90 %.3f ms\n",
		label, w.attempted, s.rate, w.elapsed.Seconds(), w.failed, quantile(latencies(w.lat), 0.5), quantile(w.late, 0.9))
	if w.firstErr != nil {
		fmt.Fprintf(o.log, "first failure: %v\n", w.firstErr)
	}
	if s.behind(w) {
		fmt.Fprintln(o.log, "generator fell behind its schedule: run invalid")
	}
}

func (s serveWorkload) run(o options) (*outcome, error) {
	fx, setupS, err := setUp(func() (*serveFixture, error) { return s.build(o.seed) }, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if !o.trace {
		w := s.measure(fx, o.seconds)
		s.report(o, "window", w)
		ok := w.attempted - w.failed
		st := sliceMedians(w.lat, o.seconds)
		return &outcome{
			correct:   w.wrong == 0 && !s.behind(w),
			attempted: w.attempted,
			failed:    w.failed,
			metrics: map[string]float64{
				"latency_ms.p50":   st.p50,
				"latency_ms.p90":   st.p90,
				"throughput_per_s": float64(ok) / w.elapsed.Seconds(),
				"success_ratio":    float64(ok) / float64(w.attempted),
				"setup_s":          setupS,
				"peak_rss_mb":      peakRSSMB(),
			},
		}, nil
	}

	// Reading the event stream's timestamps costs nothing measurable, so
	// both halves run the same way: the first gives the Go runtime
	// counters, the second the server split, and their p50 ratio is the
	// tracing overhead. The in-process replay runs after both.
	g0 := readGoStats()
	wu := s.measure(fx, o.seconds/2)
	g1 := readGoStats()
	wt := s.measure(fx, o.seconds/2)
	s.report(o, "first half", wu)
	s.report(o, "second half", wt)

	m := zeroPerLayer()
	var admit, queue, runMS []float64
	reportBytes := 0
	for k := range wt.reqs {
		r := &wt.reqs[k]
		if r.err != nil {
			continue
		}
		admit = append(admit, ms(r.accepted.Sub(r.sent)))
		queue = append(queue, ms(r.started.Sub(r.accepted)))
		runMS = append(runMS, ms(r.end.Sub(r.started)))
		reportBytes += r.reportBytes
	}
	m["server.admit_ms.p50"] = quantile(admit, 0.5)
	m["server.queue_wait_ms.p90"] = quantile(queue, 0.9)
	m["server.run_ms.p50"] = quantile(runMS, 0.5)
	m["server.report_kb"] = ratio(float64(reportBytes)/1024, float64(len(runMS)))
	h, err := (&server.Client{Base: fx.gen.base, HTTP: fx.gen.client}).Health(context.Background())
	if err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	m["server.pool_reuse_ratio"] = ratio(float64(h.ScratchReused), float64(h.ScratchCreated+h.ScratchReused))
	if err := s.replay(fx, replayJobs, m); err != nil {
		return nil, err
	}
	m["scenario.reference_ms"] = float64(fx.referenceNS) / float64(len(fx.jobs)) / 1e6
	goMetrics(m, g0, g1, wu.attempted)
	m["loadgen.late_ms.p90"] = quantile(wu.late, 0.9)
	m["trace.overhead_ratio"] = ratio(quantile(latencies(wt.lat), 0.5), quantile(latencies(wu.lat), 0.5))
	return &outcome{
		correct:   wu.wrong == 0 && wt.wrong == 0 && !s.behind(wu) && !s.behind(wt),
		attempted: wu.attempted + wt.attempted,
		failed:    wu.failed + wt.failed,
		metrics:   m,
	}, nil
}

// replayJobs is how many jobs the traced run replays in process: a hundred
// of each kind.
const replayJobs = 400

// replay runs the first jobs of a window in process, the way a server
// worker does — build, solve (with the scenario's quality line), encode
// the terminal event — timing each step, with the operator traced. It
// splits a served job's run time between build, solve and encode.
func (s serveWorkload) replay(fx *serveFixture, jobs int, m map[string]float64) error {
	rec := newRecorder()
	scratches := make(map[string]*repro.Scratch)
	var buildNS, solveNS, encodeNS, weightedSolveNS float64
	for k := 0; k < jobs; k++ {
		j := fx.jobs[k%len(fx.jobs)]
		t0 := time.Now()
		inst, err := repro.BuildScenarioTuned(j.req.Scenario, j.req.N, j.req.Seed, repro.DefaultTuning())
		if err != nil {
			return err
		}
		engine, err := repro.EngineByName(j.req.Engine)
		if err != nil {
			return err
		}
		delay, err := repro.ParseDelay("bounded:8", j.req.Seed)
		if err != nil {
			return err
		}
		scr := scratches[j.kind.scenario]
		if scr == nil {
			scr = repro.NewScratch()
			scratches[j.kind.scenario] = scr
		}
		spec := inst.Spec
		spec.Op = wrapOp(spec.Op, rec)
		t1 := time.Now()
		rep, err := repro.Solve(spec, repro.WithEngine(engine), repro.WithDelay(delay),
			repro.WithSeed(j.req.Seed), repro.WithScratch(scr), repro.WithWorkers(j.req.Workers))
		if err != nil {
			return err
		}
		describe := ""
		if inst.Describe != nil {
			describe = inst.Describe(rep.X)
		}
		t2 := time.Now()
		if _, err := json.Marshal(server.Event{Type: server.EventReport, JobID: "job", Report: rep, Describe: describe}); err != nil {
			return err
		}
		t3 := time.Now()
		if err := verify(rep, j.ref, j.kind.maxDev); err != nil {
			return fmt.Errorf("replayed %s job: %w", j.kind.scenario, err)
		}
		buildNS += float64(t1.Sub(t0))
		solveNS += float64(t2.Sub(t1))
		encodeNS += float64(t3.Sub(t2))
		weightedSolveNS += float64(t2.Sub(t1)) * float64(j.kind.evaluators)
	}
	total := buildNS + solveNS + encodeNS
	m["server.build_share"] = ratio(buildNS, total)
	m["server.solve_share"] = ratio(solveNS, total)
	m["server.encode_share"] = ratio(encodeNS, total)
	m["scenario.build_ms"] = buildNS / float64(jobs) / 1e6
	evalNS := float64(rec.evalNS.Load())
	comps := float64(rec.evalComps.Load())
	m["operators.eval_share"] = ratio(evalNS, weightedSolveNS)
	m["operators.eval_ns_per_component"] = ratio(evalNS, comps)
	m["operators.components_per_solve"] = ratio(comps, float64(jobs))
	return nil
}

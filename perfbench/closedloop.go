package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro"
)

// closedLoop is a workload that calls repro.Solve back to back, rotating
// over instances built in set-up; each call is one time-to-tolerance
// sample.
type closedLoop struct {
	scenario string
	n        int
	engine   repro.Engine
	delay    string // label model of the model engine
	topology string // dist data plane
	workers  int
	// evaluators is how many goroutines evaluate the operator at once; an
	// eval share is evaluation time over solve time times evaluators.
	evaluators int
	// instances is the rotation size: enough distinct instances that the
	// latency percentiles do not hinge on one instance's iteration count.
	instances int
	// maxDev bounds ||X - reference||_inf for an answer to count as right.
	maxDev float64
	// pace, when positive, caps the solves per second; they start in
	// bursts of paceBurst back-to-back solves. Every dist solve opens
	// fresh localhost connections, and back-to-back solves fill the
	// ephemeral port range with TIME_WAIT sockets (over 20000 after two
	// 10 s runs on a 2-CPU host), after which binding and dialling slow
	// every solve threefold. At the pace below a 20 s run leaves 1200 to
	// 2400 of them, so a run's figures do not depend on how many runs came
	// just before it.
	pace float64
}

// paceBurst is how many solves a paced loop starts back to back. Solves
// spaced evenly would each start on idle CPUs, and waking them costs a
// shared host a variable few milliseconds; in a burst only the first
// solve in twenty pays it, which stays below the 90th percentile.
const paceBurst = 20

var (
	lassoModel = closedLoop{
		scenario: "lasso", n: 64, engine: repro.EngineModel, delay: "bounded:8",
		workers: 2, evaluators: 1, instances: 32, maxDev: 1e-7,
	}
	lassoShared = closedLoop{
		scenario: "lasso", n: 384, engine: repro.EngineShared,
		workers: 2, evaluators: 2, instances: 4, maxDev: 1e-7,
	}
	lassoDistStar = closedLoop{
		scenario: "lasso", n: 64, engine: repro.EngineDist, topology: "star",
		workers: 2, evaluators: 2, instances: 32, maxDev: 1e-7, pace: 25,
	}
	lassoDistMesh = closedLoop{
		scenario: "lasso", n: 64, engine: repro.EngineDist, topology: "mesh",
		workers: 2, evaluators: 2, instances: 32, maxDev: 1e-7, pace: 25,
	}
)

// instance is one built problem with the options it is solved with and its
// synchronous reference fixed point.
type instance struct {
	seed uint64
	spec repro.Spec
	opts []repro.Option
	ref  []float64
}

// fixture is a set-up's product: the rotation of instances and what
// building them cost.
type fixture struct {
	insts       []instance
	buildNS     int64 // summed BuildScenarioTuned time
	referenceNS int64 // summed reference-solve time
}

// build makes the rotation for seed: every instance is built, given its
// reference fixed point, and solved once to warm caches and pools.
func (c closedLoop) build(seed uint64) (*fixture, error) {
	fx := &fixture{}
	scr := repro.NewScratch()
	for k := 0; k < c.instances; k++ {
		s := mix(seed, uint64(k))
		t0 := time.Now()
		inst, err := repro.BuildScenarioTuned(c.scenario, c.n, s, repro.DefaultTuning())
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		ref, err := reference(inst.Spec)
		if err != nil {
			return nil, err
		}
		fx.buildNS += int64(t1.Sub(t0))
		fx.referenceNS += int64(time.Since(t1))
		in := instance{seed: s, spec: inst.Spec, opts: c.options(s, scr), ref: ref}
		if err := c.check(in, nil, time.Now()); err != nil {
			return nil, fmt.Errorf("warm-up solve of instance %d: %w", k, err)
		}
		fx.insts = append(fx.insts, in)
	}
	return fx, nil
}

func (c closedLoop) options(seed uint64, scr *repro.Scratch) []repro.Option {
	opts := []repro.Option{
		repro.WithEngine(c.engine),
		repro.WithWorkers(c.workers),
		repro.WithScratch(scr),
	}
	if c.delay != "" {
		d, err := repro.ParseDelay(c.delay, seed)
		if err != nil {
			panic(err) // the workload table holds a valid delay string
		}
		opts = append(opts, repro.WithDelay(d))
	}
	if c.topology != "" {
		opts = append(opts, repro.WithTopology(c.topology))
	}
	return opts
}

// reference is the oracle: the synchronous fixed point of the spec's
// operator, iterated to a tenth of the spec's tolerance. It shares no code
// with the engines under test.
func reference(spec repro.Spec) ([]float64, error) {
	x0 := spec.X0
	if x0 == nil {
		x0 = make([]float64, spec.Op.Dim())
	}
	x, ok := repro.FixedPoint(spec.Op, x0, spec.Tol/10, 4000000)
	if !ok {
		return nil, errors.New("reference fixed point did not converge")
	}
	return x, nil
}

// deviation is ||x - ref||_inf, treating equal infinities (unreachable
// routing nodes) as equal and any NaN as infinitely far.
func deviation(x, ref []float64) float64 {
	if len(x) != len(ref) {
		return math.Inf(1)
	}
	m := 0.0
	for i, v := range x {
		if v == ref[i] {
			continue
		}
		d := math.Abs(v - ref[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		m = math.Max(m, d)
	}
	return m
}

// errWrong marks an answer the oracle rejected, as opposed to a solve that
// failed to produce one.
var errWrong = errors.New("wrong answer")

// verify checks a finished solve against its reference.
func verify(rep *repro.Report, ref []float64, maxDev float64) error {
	if !rep.Converged {
		return fmt.Errorf("%w: not converged after %d updates", errWrong, rep.Updates)
	}
	if d := deviation(rep.X, ref); !(d <= maxDev) {
		return fmt.Errorf("%w: ||X - reference||_inf = %.3g > %.3g", errWrong, d, maxDev)
	}
	return nil
}

// check solves in once and verifies the answer; w, when non-nil, collects
// the sample, timed from the window's start.
func (c closedLoop) check(in instance, w *window, start time.Time) error {
	t0 := time.Now()
	rep, err := repro.Solve(in.spec, in.opts...)
	d := time.Since(t0)
	if w != nil {
		w.attempted++
		w.solveNS += int64(d)
	}
	if err == nil {
		err = verify(rep, in.ref, c.maxDev)
	}
	if err != nil {
		if w != nil {
			w.fail(err)
		}
		return err
	}
	if w != nil {
		w.add(rep, time.Since(start), d)
	}
	return nil
}

// window is what one measured stretch of closed-loop solves produced.
type window struct {
	lat                 []sample // verified solves
	elapsed             time.Duration
	attempted, failed   int
	wrong               int
	firstErr            error
	solveNS             int64 // wall time of every attempted solve
	updates             int64
	sent, discard, wire int64 // dist: shard frames, discarded frames, data-plane bytes
	probes              int64
	opens               int64 // TCP connections opened (both ends), -1 when unknown
}

func (w *window) fail(err error) {
	w.failed++
	if errors.Is(err, errWrong) {
		w.wrong++
	}
	if w.firstErr == nil {
		w.firstErr = err
	}
}

func (w *window) add(rep *repro.Report, at, d time.Duration) {
	w.lat = append(w.lat, sample{at: at, ms: ms(d)})
	w.updates += int64(rep.Updates)
	w.sent += rep.MessagesSent
	w.discard += rep.MessagesReordered + rep.MessagesDuplicate + rep.MessagesStale
	if dd, ok := rep.DistDetail(); ok {
		w.probes += dd.ProbeRounds
		for _, row := range dd.LinkBytes {
			for _, b := range row {
				w.wire += b
			}
		}
	}
}

func (w *window) ok() int { return w.attempted - w.failed }

// measure runs solves over insts for dur, back to back or at c.pace.
// Solve errors — dial failures included — count as failures and are never
// retried.
func (c closedLoop) measure(insts []instance, dur time.Duration) *window {
	w := &window{opens: -1}
	opens0, errOpen := tcpOpens()
	start := time.Now()
	for k := 0; ; k++ {
		if c.pace > 0 {
			due := time.Duration(float64(k/paceBurst*paceBurst) / c.pace * float64(time.Second))
			if due >= dur {
				break
			}
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		} else if time.Since(start) >= dur {
			break
		}
		_ = c.check(insts[k%len(insts)], w, start)
	}
	w.elapsed = time.Since(start)
	if opens1, err := tcpOpens(); err == nil && errOpen == nil {
		w.opens = opens1 - opens0
	}
	return w
}

// tracedInstances returns insts with the operator, and on the model engine
// the delay model and steering policy, wrapped into rec.
func (c closedLoop) tracedInstances(insts []instance, rec *recorder) []instance {
	out := make([]instance, len(insts))
	for i, in := range insts {
		t := in
		t.spec.Op = wrapOp(in.spec.Op, rec)
		if c.engine == repro.EngineModel {
			d, err := repro.ParseDelay(c.delay, in.seed)
			if err != nil {
				panic(err)
			}
			t.opts = append(append([]repro.Option(nil), in.opts...),
				repro.WithDelay(tracedDelay{d, rec}),
				repro.WithSteering(wrapSteering(repro.NewCyclic(c.n), rec)))
		}
		out[i] = t
	}
	return out
}

func (c closedLoop) run(o options) (*outcome, error) {
	fx, setupS, err := setUp(func() (*fixture, error) { return c.build(o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		w := c.measure(fx.insts, o.seconds)
		c.report(o, "untraced", w)
		st := sliceMedians(w.lat, o.seconds)
		return &outcome{
			correct:   w.wrong == 0,
			attempted: w.attempted,
			failed:    w.failed,
			metrics: map[string]float64{
				"latency_ms.p50":   st.p50,
				"latency_ms.p90":   st.p90,
				"throughput_per_s": st.perBusy,
				"success_ratio":    float64(w.ok()) / float64(w.attempted),
				"setup_s":          setupS,
				"peak_rss_mb":      peakRSSMB(),
			},
		}, nil
	}

	// Traced run: an untraced half gives the reference p50 and the Go
	// runtime counters, a traced half the layer split.
	g0 := readGoStats()
	wu := c.measure(fx.insts, o.seconds/2)
	g1 := readGoStats()
	rec := newRecorder()
	wt := c.measure(c.tracedInstances(fx.insts, rec), o.seconds/2)
	c.report(o, "untraced", wu)
	c.report(o, "traced", wt)

	m := zeroPerLayer()
	m["scenario.build_ms"] = float64(fx.buildNS) / float64(c.instances) / 1e6
	m["scenario.reference_ms"] = float64(fx.referenceNS) / float64(c.instances) / 1e6
	solves := float64(wt.attempted)
	solveNS := float64(wt.solveNS)
	evalNS := float64(rec.evalNS.Load())
	comps := float64(rec.evalComps.Load())
	evalShare := ratio(evalNS, solveNS*float64(c.evaluators))
	m["operators.eval_share"] = evalShare
	m["operators.eval_ns_per_component"] = ratio(evalNS, comps)
	m["operators.components_per_solve"] = ratio(comps, solves)
	updates := ratio(float64(wt.updates), float64(wt.ok()))
	switch c.engine {
	case repro.EngineModel:
		// Cyclic steering relaxes one component per iteration, so the
		// replay covers as many iterations as a solve makes updates.
		iters := int(updates)
		d, err := repro.ParseDelay(c.delay, fx.insts[0].seed)
		if err != nil {
			return nil, err
		}
		labelNS := float64(rec.labelCalls.Load()) * replayLabels(d, c.n, iters)
		selectNS := float64(rec.selectCalls.Load()) * replaySelects(repro.NewCyclic(c.n), iters)
		m["core.updates_per_solve"] = updates
		m["delay.label_share"] = ratio(labelNS, solveNS)
		m["steering.select_share"] = ratio(selectNS, solveNS)
		m["core.bookkeeping_share"] = 1 - evalShare - m["delay.label_share"] - m["steering.select_share"]
	case repro.EngineShared:
		m["runtime.updates_per_solve"] = updates
		m["runtime.overhead_share"] = 1 - evalShare
	case repro.EngineDist:
		m["dist.frames_per_solve"] = ratio(float64(wt.sent), float64(wt.ok()))
		m["dist.bytes_per_frame"] = ratio(float64(wt.wire), float64(wt.sent))
		m["dist.probe_rounds_per_solve"] = ratio(float64(wt.probes), float64(wt.ok()))
		m["dist.discard_ratio"] = ratio(float64(wt.discard), float64(wt.sent))
		m["dist.updates_per_solve"] = updates
		m["dist.overhead_share"] = 1 - evalShare
		m["dist.sockets_per_solve"] = ratio(float64(wt.opens), solves)
	}
	goMetrics(m, g0, g1, wu.attempted)
	m["trace.overhead_ratio"] = ratio(quantile(latencies(wt.lat), 0.5), quantile(latencies(wu.lat), 0.5))
	return &outcome{
		correct:   wu.wrong == 0 && wt.wrong == 0,
		attempted: wu.attempted + wt.attempted,
		failed:    wu.failed + wt.failed,
		metrics:   m,
	}, nil
}

// report logs a window's sample count, failures and socket churn.
func (c closedLoop) report(o options, label string, w *window) {
	fmt.Fprintf(o.log, "%s %s: %d solves in %.2fs (%d failed), p50 %.3f ms",
		c.engine.Name(), label, w.attempted, w.elapsed.Seconds(), w.failed, quantile(latencies(w.lat), 0.5))
	if c.engine == repro.EngineDist {
		fmt.Fprintf(o.log, ", %d TCP connections opened, %d sockets in TIME_WAIT", w.opens/2, timeWait())
	}
	fmt.Fprintln(o.log)
	if w.firstErr != nil {
		fmt.Fprintf(o.log, "first failure: %v\n", w.firstErr)
	}
}

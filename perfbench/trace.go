package main

// The traced run wraps the public interfaces a solve calls into — the
// operator (Operator plus its optional fast-path interfaces), the delay
// model and the steering policy — and accumulates spans and counts in
// memory. Nothing inside the program is instrumented: every number here is
// taken at the boundary between the benchmark and the library.
//
// Calls that are long enough to time one by one (operator evaluations: a
// block, a component, a full application) get a span each, with the cost
// of reading the clock measured once and subtracted. Label and Select
// calls are a few nanoseconds each, shorter than one clock read, so the
// wrappers only count them; their time is the count times the per-call
// cost of the same calls replayed back to back after the traced window
// (see replayLabels and replaySelects).

import (
	"sort"
	"sync/atomic"
	"time"

	"repro"
)

// epoch anchors the monotonic clock: time.Since on a value carrying a
// monotonic reading costs one clock read.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// clockCost is the median duration of an empty span — what one
// nanotime()-to-nanotime() pair adds to every measured span.
func clockCost() int64 {
	const pairs = 4001
	d := make([]int64, pairs)
	for i := range d {
		t0 := nanotime()
		d[i] = nanotime() - t0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[pairs/2]
}

// recorder accumulates the traced run's spans and counts. Every field is
// atomic: the shared and dist engines evaluate the operator from several
// goroutines at once.
type recorder struct {
	clock int64 // subtracted from every span

	evalNS    atomic.Int64 // summed operator-evaluation self time
	evalCalls atomic.Int64
	evalComps atomic.Int64 // components evaluated (a full application counts Dim)

	labelCalls  atomic.Int64
	selectCalls atomic.Int64
}

func newRecorder() *recorder { return &recorder{clock: clockCost()} }

// span records one operator evaluation of comps components that started at
// t0.
func (r *recorder) span(t0 int64, comps int) {
	d := nanotime() - t0 - r.clock
	if d < 0 {
		d = 0
	}
	r.evalNS.Add(d)
	r.evalCalls.Add(1)
	r.evalComps.Add(int64(comps))
}

// The optional operator interfaces the library dispatches on. They are
// declared here by method set so the wrappers satisfy the library's own
// interfaces structurally.
type (
	blockOperator interface {
		EvalBlockScratch(scr *repro.OperatorScratch, lo, hi int, x, out []float64)
	}
	scratchOperator interface {
		ComponentScratch(scr *repro.OperatorScratch, i int, x []float64) float64
		ApplyScratch(scr *repro.OperatorScratch, dst, x []float64)
	}
	fullApplier interface {
		Apply(dst, x []float64)
	}
)

// tracedOp times every evaluation of the operator it wraps.
type tracedOp struct {
	inner repro.Operator
	rec   *recorder
}

func (o *tracedOp) Dim() int     { return o.inner.Dim() }
func (o *tracedOp) Name() string { return o.inner.Name() }

func (o *tracedOp) Component(i int, x []float64) float64 {
	t0 := nanotime()
	v := o.inner.Component(i, x)
	o.rec.span(t0, 1)
	return v
}

// The mixins below each add one optional interface; wrapOp composes
// exactly the ones the wrapped operator has, so the library's type
// switches take the same branch with or without tracing.
type blockMixin struct{ o *tracedOp }

func (m blockMixin) EvalBlockScratch(scr *repro.OperatorScratch, lo, hi int, x, out []float64) {
	t0 := nanotime()
	m.o.inner.(blockOperator).EvalBlockScratch(scr, lo, hi, x, out)
	m.o.rec.span(t0, hi-lo)
}

type scratchMixin struct{ o *tracedOp }

func (m scratchMixin) ComponentScratch(scr *repro.OperatorScratch, i int, x []float64) float64 {
	t0 := nanotime()
	v := m.o.inner.(scratchOperator).ComponentScratch(scr, i, x)
	m.o.rec.span(t0, 1)
	return v
}

func (m scratchMixin) ApplyScratch(scr *repro.OperatorScratch, dst, x []float64) {
	t0 := nanotime()
	m.o.inner.(scratchOperator).ApplyScratch(scr, dst, x)
	m.o.rec.span(t0, len(dst))
}

type fullMixin struct{ o *tracedOp }

func (m fullMixin) Apply(dst, x []float64) {
	t0 := nanotime()
	m.o.inner.(fullApplier).Apply(dst, x)
	m.o.rec.span(t0, len(dst))
}

type (
	opB struct {
		*tracedOp
		blockMixin
	}
	opS struct {
		*tracedOp
		scratchMixin
	}
	opF struct {
		*tracedOp
		fullMixin
	}
	opBS struct {
		*tracedOp
		blockMixin
		scratchMixin
	}
	opBF struct {
		*tracedOp
		blockMixin
		fullMixin
	}
	opSF struct {
		*tracedOp
		scratchMixin
		fullMixin
	}
	opBSF struct {
		*tracedOp
		blockMixin
		scratchMixin
		fullMixin
	}
)

// wrapOp returns op traced into rec, forwarding exactly the optional
// interfaces op implements.
func wrapOp(op repro.Operator, rec *recorder) repro.Operator {
	t := &tracedOp{inner: op, rec: rec}
	_, b := op.(blockOperator)
	_, s := op.(scratchOperator)
	_, f := op.(fullApplier)
	bm, sm, fm := blockMixin{t}, scratchMixin{t}, fullMixin{t}
	switch {
	case b && s && f:
		return opBSF{t, bm, sm, fm}
	case b && s:
		return opBS{t, bm, sm}
	case b && f:
		return opBF{t, bm, fm}
	case s && f:
		return opSF{t, sm, fm}
	case b:
		return opB{t, bm}
	case s:
		return opS{t, sm}
	case f:
		return opF{t, fm}
	}
	return t
}

// tracedDelay counts Label calls.
type tracedDelay struct {
	inner repro.DelayModel
	rec   *recorder
}

func (d tracedDelay) Label(i, j int) int {
	d.rec.labelCalls.Add(1)
	return d.inner.Label(i, j)
}

func (d tracedDelay) Name() string { return d.inner.Name() }

// tracedSteering counts Select calls.
type tracedSteering struct {
	inner repro.SteeringPolicy
	rec   *recorder
}

func (s tracedSteering) Select(j int) []int {
	s.rec.selectCalls.Add(1)
	return s.inner.Select(j)
}

func (s tracedSteering) Name() string { return s.inner.Name() }

// residualAware is the optional steering interface the model engine wires
// live residuals into (Gauss–Southwell).
type residualAware interface {
	SetResidualFunc(f func(i int) float64)
}

type tracedResidualSteering struct{ tracedSteering }

func (s tracedResidualSteering) SetResidualFunc(f func(i int) float64) {
	s.inner.(residualAware).SetResidualFunc(f)
}

// wrapSteering returns p traced into rec, forwarding ResidualAware exactly
// when p implements it.
func wrapSteering(p repro.SteeringPolicy, rec *recorder) repro.SteeringPolicy {
	t := tracedSteering{inner: p, rec: rec}
	if _, ok := p.(residualAware); ok {
		return tracedResidualSteering{t}
	}
	return t
}

// replaySink keeps the replay loops' results live.
var replaySink int

// replayLabels returns the per-call cost in nanoseconds of d.Label over
// the grid a model-engine solve of iters iterations on n components
// visits, as the median of several back-to-back replays.
func replayLabels(d repro.DelayModel, n, iters int) float64 {
	return medianReplay(n*iters, func() {
		s := 0
		for j := 1; j <= iters; j++ {
			for i := 0; i < n; i++ {
				s += d.Label(i, j)
			}
		}
		replaySink += s
	})
}

// replaySelects returns the per-call cost in nanoseconds of p.Select over
// iterations 1..iters.
func replaySelects(p repro.SteeringPolicy, iters int) float64 {
	return medianReplay(iters, func() {
		s := 0
		for j := 1; j <= iters; j++ {
			s += len(p.Select(j))
		}
		replaySink += s
	})
}

func medianReplay(calls int, loop func()) float64 {
	if calls <= 0 {
		return 0
	}
	const reps = 5
	per := make([]float64, reps)
	for k := range per {
		t0 := nanotime()
		loop()
		per[k] = float64(nanotime()-t0) / float64(calls)
	}
	sort.Float64s(per)
	return per[reps/2]
}

package main

import (
	"testing"

	"repro"
)

// fakeOp implements only the base Operator; the embedding types below add
// each combination of the optional interfaces.
type fakeOp struct{}

func (fakeOp) Dim() int                             { return 4 }
func (fakeOp) Name() string                         { return "fake" }
func (fakeOp) Component(i int, x []float64) float64 { return x[i] / 2 }

type fakeBlock struct{}

func (fakeBlock) EvalBlockScratch(_ *repro.OperatorScratch, lo, hi int, x, out []float64) {
	for c := lo; c < hi; c++ {
		out[c-lo] = x[c] / 2
	}
}

type fakeScratch struct{}

func (fakeScratch) ComponentScratch(_ *repro.OperatorScratch, i int, x []float64) float64 {
	return x[i] / 2
}

func (fakeScratch) ApplyScratch(_ *repro.OperatorScratch, dst, x []float64) {
	for i := range dst {
		dst[i] = x[i] / 2
	}
}

type fakeFull struct{}

func (fakeFull) Apply(dst, x []float64) {
	for i := range dst {
		dst[i] = x[i] / 2
	}
}

func TestWrapOpForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	ops := map[string]repro.Operator{
		"none": fakeOp{},
		"B": struct {
			fakeOp
			fakeBlock
		}{},
		"S": struct {
			fakeOp
			fakeScratch
		}{},
		"F": struct {
			fakeOp
			fakeFull
		}{},
		"BS": struct {
			fakeOp
			fakeBlock
			fakeScratch
		}{},
		"BF": struct {
			fakeOp
			fakeBlock
			fakeFull
		}{},
		"SF": struct {
			fakeOp
			fakeScratch
			fakeFull
		}{},
		"BSF": struct {
			fakeOp
			fakeBlock
			fakeScratch
			fakeFull
		}{},
	}
	for _, sc := range []string{"lasso", "ridge", "routing", "logistic"} {
		inst, err := repro.BuildScenario(sc, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		ops[sc] = inst.Spec.Op
	}
	for name, op := range ops {
		rec := newRecorder()
		w := wrapOp(op, rec)
		for _, iface := range []struct {
			name string
			has  func(repro.Operator) bool
		}{
			{"BlockOperator", func(o repro.Operator) bool { _, ok := o.(repro.BlockOperator); return ok }},
			{"ScratchOperator", func(o repro.Operator) bool { _, ok := o.(scratchOperator); return ok }},
			{"FullApplier", func(o repro.Operator) bool { _, ok := o.(fullApplier); return ok }},
		} {
			if got, want := iface.has(w), iface.has(op); got != want {
				t.Errorf("%s: wrapper implements %s = %v, wrapped operator %v", name, iface.name, got, want)
			}
		}
		// The traced operator computes the wrapped one's values, and the
		// evaluation is recorded.
		n := op.Dim()
		x, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i + 1)
		}
		repro.ApplyOperator(w, repro.NewOperatorScratch(), got, x)
		repro.ApplyOperator(op, repro.NewOperatorScratch(), want, x)
		if !sameFloats(got, want) {
			t.Errorf("%s: traced F(x) = %v, want %v", name, got, want)
		}
		if rec.evalCalls.Load() == 0 {
			t.Errorf("%s: evaluation not recorded", name)
		}
	}
}

func TestWrapSteeringForwardsResidualAware(t *testing.T) {
	rec := newRecorder()
	if _, ok := wrapSteering(repro.NewCyclic(4), rec).(residualAware); ok {
		t.Error("traced cyclic policy claims ResidualAware")
	}
	if _, ok := wrapSteering(repro.NewGaussSouthwell(4), rec).(residualAware); !ok {
		t.Error("traced Gauss-Southwell policy lost ResidualAware")
	}
}

// A traced model-engine solve follows the untraced trajectory exactly:
// same final iterate bit for bit, same update count.
func TestTracedModelSolveIsBitIdentical(t *testing.T) {
	for _, steer := range []struct {
		name   string
		policy func(n int) repro.SteeringPolicy
	}{
		{"cyclic", func(n int) repro.SteeringPolicy { return repro.NewCyclic(n) }},
		{"gauss-southwell", func(n int) repro.SteeringPolicy { return repro.NewGaussSouthwell(n) }},
	} {
		t.Run(steer.name, func(t *testing.T) {
			inst, err := repro.BuildScenario("lasso", 32, 5)
			if err != nil {
				t.Fatal(err)
			}
			n := inst.Spec.Op.Dim()
			delay, err := repro.ParseDelay("bounded:8", 5)
			if err != nil {
				t.Fatal(err)
			}
			base := []repro.Option{repro.WithEngine(repro.EngineModel), repro.WithWorkers(2)}
			plain, err := repro.Solve(inst.Spec, append(base,
				repro.WithDelay(delay), repro.WithSteering(steer.policy(n)))...)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			spec := inst.Spec
			spec.Op = wrapOp(spec.Op, rec)
			traced, err := repro.Solve(spec, append(base,
				repro.WithDelay(tracedDelay{delay, rec}),
				repro.WithSteering(wrapSteering(steer.policy(n), rec)))...)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Converged || traced.Updates != plain.Updates {
				t.Fatalf("updates: traced %d, untraced %d (converged %v)", traced.Updates, plain.Updates, plain.Converged)
			}
			if !sameFloats(traced.X, plain.X) {
				t.Fatalf("X: traced %v, untraced %v", traced.X, plain.X)
			}
			if rec.labelCalls.Load() != int64(n*plain.Iterations) {
				t.Errorf("label calls %d, want n*iterations = %d", rec.labelCalls.Load(), n*plain.Iterations)
			}
			if rec.selectCalls.Load() != int64(plain.Iterations) {
				t.Errorf("select calls %d, want iterations = %d", rec.selectCalls.Load(), plain.Iterations)
			}
		})
	}
}

// The recorder is fed from the shared and dist engines' worker goroutines
// at once; run under -race this proves the accumulators race-clean.
func TestRecorderUnderConcurrentEngines(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []repro.Option
	}{
		{"shared", []repro.Option{repro.WithEngine(repro.EngineShared)}},
		{"dist-star", []repro.Option{repro.WithEngine(repro.EngineDist), repro.WithTopology("star")}},
		{"dist-mesh", []repro.Option{repro.WithEngine(repro.EngineDist), repro.WithTopology("mesh")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := repro.BuildScenario("lasso", 32, 3)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			spec := inst.Spec
			spec.Op = wrapOp(spec.Op, rec)
			for k := 0; k < 3; k++ {
				rep, err := repro.Solve(spec, append(tc.opts, repro.WithWorkers(4))...)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Converged {
					t.Fatal("traced solve did not converge")
				}
			}
			calls, comps := rec.evalCalls.Load(), rec.evalComps.Load()
			if calls == 0 || comps < calls || rec.evalNS.Load() <= 0 {
				t.Errorf("recorder: %d calls, %d components, %d ns", calls, comps, rec.evalNS.Load())
			}
		})
	}
}

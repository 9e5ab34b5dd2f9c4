package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/delay"
	"repro/internal/steering"
)

// perCallDelay hides a model's optional BatchModel fast path, forcing Run
// onto its per-component Label loop.
type perCallDelay struct{ delay.Model }

// TestBatchLabelsAndPooledHistoryAreBitIdentical runs every delay model
// twice — once through its LabelsInto fast path on a RunScratch that an
// earlier, larger run already used, once through the per-call Label path on
// fresh storage — and requires identical Results: the batched labels and
// the pooled History change no bit of any trajectory.
func TestBatchLabelsAndPooledHistoryAreBitIdentical(t *testing.T) {
	const n = 8
	op, xstar := testSystem(t, n)
	models := []struct {
		name  string
		batch bool
		make  func() delay.Model
	}{
		{"fresh", true, func() delay.Model { return delay.Fresh{} }},
		{"constant", true, func() delay.Model { return delay.Constant{D: 3} }},
		{"bounded8", true, func() delay.Model { return delay.BoundedRandom{B: 8, Seed: 5} }},
		{"bounded6", true, func() delay.Model { return delay.BoundedRandom{B: 6, Seed: 5} }},
		{"sqrt", true, func() delay.Model { return delay.SqrtGrowth{Slow: map[int]bool{2: true, 5: true}} }},
		{"log", true, func() delay.Model { return delay.LogGrowth{} }},
		{"ooo", true, func() delay.Model { return delay.OutOfOrder{W: 12, Seed: 3} }},
		{"perComponent", false, func() delay.Model {
			return delay.PerComponent{Models: []delay.Model{delay.Constant{D: 4}, delay.SqrtGrowth{}}}
		}},
		{"monotone", false, func() delay.Model { return delay.NewMonotone(delay.OutOfOrder{W: 8, Seed: 2}) }},
	}
	steerings := []struct {
		name string
		make func() steering.Policy
	}{
		{"cyclic", func() steering.Policy { return steering.NewCyclic(n) }},
		{"block", func() steering.Policy { return steering.NewBlockCyclic(n, 2) }},
	}

	// Pool the scratch behind a larger, longer run first, so leftover
	// History entries or labels would show up as a mismatch.
	scratch := NewRunScratch()
	bigOp, _ := testSystem(t, 2*n)
	if _, err := Run(Config{Op: bigOp, Delay: delay.SqrtGrowth{}, MaxIter: 3000, Scratch: scratch}); err != nil {
		t.Fatal(err)
	}

	for _, m := range models {
		if _, ok := m.make().(delay.BatchModel); ok != m.batch {
			t.Fatalf("%s: BatchModel = %v, want %v", m.name, ok, m.batch)
		}
		for _, s := range steerings {
			for _, theta := range []float64{0, 0.5} {
				t.Run(fmt.Sprintf("%s/%s/theta=%v", m.name, s.name, theta), func(t *testing.T) {
					cfg := func(d delay.Model, scr *RunScratch) Config {
						return Config{
							Op: op, Steering: s.make(), Delay: d, Theta: theta,
							MaxIter: 400, Tol: 1e-9, XStar: xstar,
							CheckConstraint3: true, Scratch: scr,
						}
					}
					fast, err := Run(cfg(m.make(), scratch))
					if err != nil {
						t.Fatal(err)
					}
					slow, err := Run(cfg(perCallDelay{m.make()}, nil))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fast, slow) {
						t.Fatalf("fast path diverged: %d vs %d iterations, X %v vs %v",
							fast.Iterations, slow.Iterations, fast.X, slow.X)
					}
				})
			}
		}
	}
}

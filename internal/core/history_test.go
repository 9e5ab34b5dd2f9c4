package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/vec"
)

func TestHistoryBasics(t *testing.T) {
	h := NewHistory([]float64{1, 2})
	if h.Dim() != 2 {
		t.Fatalf("Dim = %d", h.Dim())
	}
	if h.At(0, 0) != 1 || h.At(1, 0) != 2 {
		t.Fatal("initial values wrong")
	}
	h.Set(0, 3, 10)
	h.Set(0, 5, 20)
	cases := []struct {
		l    int
		want float64
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 10}, {4, 10}, {5, 20}, {100, 20},
	}
	for _, c := range cases {
		if got := h.At(0, c.l); got != c.want {
			t.Errorf("At(0, %d) = %v, want %v", c.l, got, c.want)
		}
	}
	if h.Latest(0) != 20 || h.LatestIter(0) != 5 {
		t.Error("Latest wrong")
	}
	if h.Latest(1) != 2 || h.LatestIter(1) != 0 {
		t.Error("untouched component changed")
	}
	if h.Updates() != 2 {
		t.Errorf("Updates = %d", h.Updates())
	}
}

func TestHistorySnapshot(t *testing.T) {
	h := NewHistory([]float64{0, 0, 0})
	h.Set(0, 1, 1)
	h.Set(1, 2, 2)
	h.Set(2, 3, 3)
	h.Set(0, 4, 4)
	snap2 := h.Snapshot(2)
	if snap2[0] != 1 || snap2[1] != 2 || snap2[2] != 0 {
		t.Errorf("Snapshot(2) = %v", snap2)
	}
	latest := h.LatestSnapshot()
	if latest[0] != 4 || latest[1] != 2 || latest[2] != 3 {
		t.Errorf("LatestSnapshot = %v", latest)
	}
}

func TestHistorySameIterationOverwrites(t *testing.T) {
	h := NewHistory([]float64{0})
	h.Set(0, 1, 5)
	h.Set(0, 1, 7)
	if h.Latest(0) != 7 {
		t.Errorf("Latest = %v, want 7", h.Latest(0))
	}
	if h.Updates() != 1 {
		t.Errorf("Updates = %d, want 1", h.Updates())
	}
}

func TestHistoryOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h := NewHistory([]float64{0})
	h.Set(0, 5, 1)
	h.Set(0, 3, 2)
}

// naiveHistory is the reference History: every component keeps its full
// (iteration, value) list, initial value included, and At binary-searches
// it with sort.Search.
type naiveHistory struct {
	iters [][]int
	vals  [][]float64
}

func newNaiveHistory(x0 []float64) *naiveHistory {
	h := &naiveHistory{iters: make([][]int, len(x0)), vals: make([][]float64, len(x0))}
	for i, v := range x0 {
		h.iters[i] = []int{0}
		h.vals[i] = []float64{v}
	}
	return h
}

func (h *naiveHistory) Set(i, j int, v float64) {
	last := len(h.iters[i]) - 1
	if j == h.iters[i][last] {
		h.vals[i][last] = v
		return
	}
	h.iters[i] = append(h.iters[i], j)
	h.vals[i] = append(h.vals[i], v)
}

func (h *naiveHistory) At(i, l int) float64 {
	it := h.iters[i]
	idx := sort.Search(len(it), func(k int) bool { return it[k] > l }) - 1
	if idx < 0 {
		idx = 0
	}
	return h.vals[i][idx]
}

// TestHistoryMatchesNaiveOracle drives one pooled History through random
// Set/At sequences — same-iteration overwrites, labels from fresh through
// bounded delays to SqrtGrowth's far-back reach and below 0 — resetting it
// to shorter and longer initial iterates between sequences, and checks
// every read against the reference implementation.
func TestHistoryMatchesNaiveOracle(t *testing.T) {
	rng := vec.NewRNG(12)
	var h *History
	for round, n := range []int{5, 2, 9, 1, 9, 3} {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.Float64()
		}
		if h == nil {
			h = NewHistory(x0)
		} else {
			h.Reset(x0)
		}
		ref := newNaiveHistory(x0)
		updates := 0
		for j := 1; j <= 600; j++ {
			for i := 0; i < n; i++ {
				if rng.Intn(3) != 0 {
					continue
				}
				v := rng.Float64()
				h.Set(i, j, v)
				ref.Set(i, j, v)
				updates++
				if rng.Intn(4) == 0 { // same-iteration overwrite
					v = rng.Float64()
					h.Set(i, j, v)
					ref.Set(i, j, v)
				}
			}
			for q := 0; q < 2*n; q++ {
				i := rng.Intn(n)
				var l int
				switch rng.Intn(5) {
				case 0:
					l = j - 1
				case 1:
					l = j - 1 - rng.Intn(8)
				case 2:
					l = j - 1 - int(math.Sqrt(float64(j))) // SqrtGrowth reach
				case 3:
					l = rng.Intn(j)
				default:
					l = j + rng.Intn(3) - 3 // includes l = -1 at j = 1, 2
				}
				if got, want := h.At(i, l), ref.At(i, l); got != want {
					t.Fatalf("round %d j=%d: At(%d, %d) = %v, want %v", round, j, i, l, got, want)
				}
			}
		}
		if h.Dim() != n || h.Updates() != updates {
			t.Fatalf("round %d: Dim %d Updates %d, want %d and %d", round, h.Dim(), h.Updates(), n, updates)
		}
		for i := 0; i < n; i++ {
			last := len(ref.iters[i]) - 1
			if h.Latest(i) != ref.vals[i][last] || h.LatestIter(i) != ref.iters[i][last] {
				t.Fatalf("round %d: Latest(%d) = %v@%d, want %v@%d", round, i,
					h.Latest(i), h.LatestIter(i), ref.vals[i][last], ref.iters[i][last])
			}
		}
		for _, l := range []int{0, 17, 300, 599} {
			snap := h.Snapshot(l)
			for i := range snap {
				if snap[i] != ref.At(i, l) {
					t.Fatalf("round %d: Snapshot(%d)[%d] = %v, want %v", round, l, i, snap[i], ref.At(i, l))
				}
			}
		}
	}
}

// TestHistoryResetAllocsZero pins the pooled-storage contract: once a
// History has run a Set/At sequence, Reset plus the same sequence
// allocates nothing.
func TestHistoryResetAllocsZero(t *testing.T) {
	x0 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	var sink float64
	run := func(h *History) {
		h.Reset(x0)
		for j := 1; j <= 400; j++ {
			i := j % len(x0)
			h.Set(i, j, float64(j))
			sink += h.At(i, j-1-int(math.Sqrt(float64(j)))) + h.At((i+3)%len(x0), j-5)
		}
	}
	h := NewHistory(x0)
	run(h)
	if allocs := testing.AllocsPerRun(10, func() { run(h) }); allocs != 0 {
		t.Errorf("Reset + Set/At sequence allocates %v per run, want 0", allocs)
	}
	_ = sink
}

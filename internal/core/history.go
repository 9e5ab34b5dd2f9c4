// Package core implements the paper's primary contribution: an engine for
// parallel or distributed asynchronous iterations with unbounded delays,
// possible out-of-order messages, and flexible communication, together with
// the macro-iteration bookkeeping and the Theorem 1 convergence-bound
// checker.
//
// The engine in this package (ModelSim) executes the *mathematical model* of
// Definitions 1 and 3 literally: a global iteration counter j, explicit
// steering sets S_j, explicit label functions l_i(j), and full access to the
// past iterates that unbounded delays may reach back to. The systems-level
// engines (virtual-time discrete events, real goroutines) live in
// internal/des and internal/runtime and feed the same bookkeeping.
package core

import "fmt"

// History stores the per-component update history of an asynchronous
// iteration so that any past value x_i(l) can be retrieved — the storage
// required by unbounded delays. Memory is proportional to the number of
// updates actually performed (not iterations x dimension), because a
// component's value only changes when it is relaxed.
//
// Each component's latest value and update iteration live in two flat
// arrays, so the common read — a label at or after the component's last
// update — is one compare. Superseded values stay in per-component slices
// (oldest first), because an unbounded delay may reach arbitrarily far
// back; a read older than the last update scans a few entries back from
// the tail and then binary-searches.
type History struct {
	cur     []float64   // per component: latest value
	curIter []int       // per component: iteration of the latest value
	iters   [][]int     // per component: strictly increasing iterations of superseded values
	vals    [][]float64 // parallel superseded values
}

// tailScan is how many superseded entries At probes linearly, newest
// first, before falling back to binary search: bounded delays land within
// a few updates of the tail.
const tailScan = 4

// NewHistory starts a history at iteration 0 with initial iterate x0.
func NewHistory(x0 []float64) *History {
	h := &History{}
	h.Reset(x0)
	return h
}

// Reset restarts the history at iteration 0 with initial iterate x0,
// keeping the storage of earlier runs for reuse: a history reset to the
// same shape and driven through the same updates allocates nothing.
func (h *History) Reset(x0 []float64) {
	n := len(x0)
	h.cur = append(h.cur[:0], x0...)
	if cap(h.curIter) < n {
		h.curIter = make([]int, n)
	}
	h.curIter = h.curIter[:n]
	clear(h.curIter)
	if cap(h.iters) < n {
		// Grow the outer slices, carrying over every inner slice (also
		// those beyond the current length) so their storage is reused.
		iters, vals := make([][]int, n), make([][]float64, n)
		copy(iters, h.iters[:cap(h.iters)])
		copy(vals, h.vals[:cap(h.vals)])
		h.iters, h.vals = iters, vals
	}
	h.iters, h.vals = h.iters[:n], h.vals[:n]
	for i := range h.iters {
		h.iters[i] = h.iters[i][:0]
		h.vals[i] = h.vals[i][:0]
	}
}

// Dim returns the number of components.
func (h *History) Dim() int { return len(h.cur) }

// Set records that component i took value v at iteration j. Iterations must
// be recorded in increasing order per component; a second Set at the same
// iteration overwrites the first.
func (h *History) Set(i, j int, v float64) {
	last := h.curIter[i]
	if j < last {
		panic(fmt.Sprintf("core: History.Set out of order for comp %d: j=%d after %d", i, j, last))
	}
	if j > last {
		h.iters[i] = append(h.iters[i], last)
		h.vals[i] = append(h.vals[i], h.cur[i])
		h.curIter[i] = j
	}
	h.cur[i] = v
}

// At returns x_i(l): the value component i had at iteration label l (the
// most recent update at or before l; the initial value for l < 0).
//
//repro:hotpath
func (h *History) At(i, l int) float64 {
	if h.curIter[i] <= l {
		return h.cur[i]
	}
	it := h.iters[i]
	if len(it) == 0 {
		return h.cur[i] // never updated: cur is the initial value
	}
	k := len(it) - 1
	for stop := max(k-tailScan, 0); k > stop; k-- {
		if it[k] <= l {
			return h.vals[i][k]
		}
	}
	// Binary search it[0..k] for the largest index with it[idx] <= l; the
	// initial value (index 0, iteration 0) answers any earlier label.
	lo, hi := 0, k+1 // it[lo-1] <= l (or lo == 0), it[hi] > l
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it[mid] <= l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return h.vals[i][max(lo-1, 0)]
}

// Latest returns the most recent value of component i.
func (h *History) Latest(i int) float64 { return h.cur[i] }

// LatestIter returns the iteration at which component i was last updated.
func (h *History) LatestIter(i int) int { return h.curIter[i] }

// Snapshot materializes the full iterate vector x(l) at label l.
func (h *History) Snapshot(l int) []float64 {
	x := make([]float64, len(h.cur))
	for i := range x {
		x[i] = h.At(i, l)
	}
	return x
}

// LatestSnapshot materializes the freshest iterate vector.
func (h *History) LatestSnapshot() []float64 {
	x := make([]float64, len(h.cur))
	h.LatestSnapshotInto(x)
	return x
}

// LatestSnapshotInto writes the freshest iterate vector into dst (length n)
// without allocating.
func (h *History) LatestSnapshotInto(dst []float64) {
	copy(dst, h.cur)
}

// Updates returns the total number of recorded updates (excluding the
// initial values).
func (h *History) Updates() int {
	total := 0
	for i := range h.iters {
		total += len(h.iters[i])
	}
	return total
}

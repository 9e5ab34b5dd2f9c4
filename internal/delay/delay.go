// Package delay implements the delay/label models of the asynchronous
// iterations literature reproduced by this library.
//
// An asynchronous iteration (Definition 1 of the paper) uses, at global
// iteration j, component values x_i(l_i(j)) where the label functions
// l_i : N -> N are subject to
//
//	a) l_i(j) <= j-1                       (values come from the past),
//	b) lim_{j->inf} l_i(j) = +inf          (unbounded delays allowed, but
//	                                        arbitrarily old values are
//	                                        eventually abandoned),
//	c) every i appears infinitely often in the steering sets S_j.
//
// Chaotic relaxation (Chazan–Miranker, Miellou) instead assumes a delay
// bound: d_i(j) = j - l_i(j) <= b (condition d). Baudet's model removes the
// bound; his canonical example has the delay of one component growing like
// sqrt(j). Out-of-order message delivery corresponds to label functions that
// are not monotone in j.
//
// A Model here answers "which past iterate does component i read at
// iteration j". All stochastic models are *stateless*: the label for (i, j)
// is a pure hash of (seed, i, j), so repeated queries agree and simulations
// are reproducible.
package delay

import (
	"fmt"
	"math"
)

// Model yields the label function of an asynchronous iteration.
type Model interface {
	// Label returns l_i(j) for 1-based iteration j >= 1, clamped to
	// [0, j-1] so that condition a) holds by construction.
	Label(i, j int) int
	// Name identifies the model in traces and experiment tables.
	Name() string
}

// BatchModel is an optional fast path on Model, in the idiom of
// operators.BlockScratchOperator: LabelsInto draws the labels of every
// component for one iteration in a single call, hoisting the per-iteration
// work (the j part of the hash, the delay of a growth model) out of the
// component loop. Engines use it when present and fall back to one Label
// call per component otherwise, so a model — or a wrapper around one — that
// does not implement it still yields identical labels.
//
// Contract: dst[h] == Label(h, j) for every h in [0, len(dst)), and the
// return value is the minimum of j-1 and those labels. Implementations must
// not allocate.
type BatchModel interface {
	Model
	LabelsInto(j int, dst []int) (minLabel int)
}

// fillLabel writes the same label l into every dst slot and returns the
// minimum of j-1 and the labels written (the minLabel of a
// component-independent model).
func fillLabel(j, l int, dst []int) int {
	if len(dst) == 0 {
		return j - 1
	}
	for h := range dst {
		dst[h] = l
	}
	return min(j-1, l)
}

func clampLabel(l, j int) int {
	if l > j-1 {
		l = j - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

// hash64 mixes (seed, i, j) into pseudo-random 64 bits (SplitMix64 finalizer).
func hash64(seed uint64, i, j int) uint64 {
	return mix64(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(j)+1)*0xbf58476d1ce4e5b9)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniformLabelsInto writes, for every component h, the label j-d with d
// uniform on [1, w] drawn from hash64(seed, h, j), clamped at 0, and
// returns the minimum of j-1 and those labels. It is bit-identical to
// per-component clampLabel(j-1-hash64(seed, h, j)%w, j) for w >= 1: the j
// part of the hash is hoisted, the h part advances by one odd-constant
// addition (the same product mod 2^64), and a power-of-two w takes the
// exact mask instead of the modulo.
//
//repro:hotpath
func uniformLabelsInto(seed uint64, w, j int, dst []int) int {
	base := seed ^ (uint64(j)+1)*0xbf58476d1ce4e5b9
	step := uint64(0x9e3779b97f4a7c15)
	hi := step // (uint64(h)+1) * step for h = 0
	uw := uint64(w)
	pow2 := uw&(uw-1) == 0
	minLabel := j - 1
	for h := range dst {
		z := mix64(base ^ hi)
		if pow2 {
			z &= uw - 1
		} else {
			z %= uw
		}
		l := max(j-1-int(z), 0)
		dst[h] = l
		minLabel = min(minLabel, l)
		hi += step
	}
	return minLabel
}

// Fresh is the zero-delay model: every update reads the immediately
// preceding iterate, l_i(j) = j-1. This is the Gauss–Seidel-style freshest
// admissible schedule and the natural synchronous baseline.
type Fresh struct{}

func (Fresh) Label(i, j int) int { return clampLabel(j-1, j) }
func (Fresh) Name() string       { return "fresh" }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (Fresh) LabelsInto(j int, dst []int) int { return fillLabel(j, clampLabel(j-1, j), dst) }

// Constant applies a fixed delay D >= 1: l_i(j) = j - D (clamped).
type Constant struct{ D int }

func (c Constant) Label(i, j int) int { return clampLabel(j-c.D, j) }
func (c Constant) Name() string       { return fmt.Sprintf("constant(%d)", c.D) }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (c Constant) LabelsInto(j int, dst []int) int { return fillLabel(j, clampLabel(j-c.D, j), dst) }

// BoundedRandom draws, independently per (i, j), a delay uniform on [1, B].
// This is the chaotic-relaxation regime (condition d with bound b = B).
type BoundedRandom struct {
	B    int
	Seed uint64
}

func (m BoundedRandom) Label(i, j int) int {
	if m.B <= 1 {
		return clampLabel(j-1, j)
	}
	d := 1 + int(hash64(m.Seed, i, j)%uint64(m.B))
	return clampLabel(j-d, j)
}

func (m BoundedRandom) Name() string { return fmt.Sprintf("boundedRandom(B=%d)", m.B) }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (m BoundedRandom) LabelsInto(j int, dst []int) int {
	return uniformLabelsInto(m.Seed, max(m.B, 1), j, dst)
}

// SqrtGrowth reproduces Baudet's unbounded-delay example (Section II of the
// paper): the delay of the designated slow components grows like sqrt(j)
// while fast components read fresh values. Condition b) still holds because
// l(j) = j - sqrt(j) - 1 -> +inf.
type SqrtGrowth struct {
	// Slow marks which components experience the growing delay. A nil map
	// means every component is slow.
	Slow map[int]bool
}

func (m SqrtGrowth) Label(i, j int) int {
	if m.Slow != nil && !m.Slow[i] {
		return clampLabel(j-1, j)
	}
	return sqrtLabel(j)
}

// sqrtLabel is the slow components' label j - 1 - floor(sqrt(j)), clamped.
func sqrtLabel(j int) int {
	d := 1 + int(math.Floor(math.Sqrt(float64(j))))
	return clampLabel(j-d, j)
}

func (m SqrtGrowth) Name() string { return "sqrtGrowth" }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (m SqrtGrowth) LabelsInto(j int, dst []int) int {
	return slowLabelsInto(m.Slow, sqrtLabel(j), j, dst)
}

// slowLabelsInto writes slow to the components marked in the slow set (all
// of them when it is nil) and the fresh label to the others, returning the
// minimum of j-1 and those labels.
//
//repro:hotpath
func slowLabelsInto(set map[int]bool, slow, j int, dst []int) int {
	if set == nil {
		return fillLabel(j, slow, dst)
	}
	fresh := clampLabel(j-1, j)
	minLabel := j - 1
	for h := range dst {
		l := fresh
		if set[h] {
			l = slow
		}
		dst[h] = l
		minLabel = min(minLabel, l)
	}
	return minLabel
}

// LogGrowth has delays growing like log2(j): a milder unbounded-delay model.
type LogGrowth struct{ Slow map[int]bool }

func (m LogGrowth) Label(i, j int) int {
	if m.Slow != nil && !m.Slow[i] {
		return clampLabel(j-1, j)
	}
	return logLabel(j)
}

// logLabel is the slow components' label j - 1 - floor(log2(j)), clamped.
func logLabel(j int) int {
	d := 1
	if j > 1 {
		d = 1 + int(math.Floor(math.Log2(float64(j))))
	}
	return clampLabel(j-d, j)
}

func (m LogGrowth) Name() string { return "logGrowth" }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (m LogGrowth) LabelsInto(j int, dst []int) int {
	return slowLabelsInto(m.Slow, logLabel(j), j, dst)
}

// OutOfOrder models out-of-order message delivery: within a sliding window
// of width W the label jumps around non-monotonically (a later update may
// read an older iterate than an earlier update did). Delays stay bounded by
// W so convergence theory still applies, but label monotonicity — which the
// epoch analysis of Mishchenko et al. assumes — is violated.
type OutOfOrder struct {
	W    int
	Seed uint64
}

func (m OutOfOrder) Label(i, j int) int {
	w := m.W
	if w < 1 {
		w = 1
	}
	d := 1 + int(hash64(m.Seed, i, j)%uint64(w))
	return clampLabel(j-d, j)
}

func (m OutOfOrder) Name() string { return fmt.Sprintf("outOfOrder(W=%d)", m.W) }

// LabelsInto implements BatchModel.
//
//repro:hotpath
func (m OutOfOrder) LabelsInto(j int, dst []int) int {
	return uniformLabelsInto(m.Seed, max(m.W, 1), j, dst)
}

// PerComponent assigns a distinct sub-model to each component; components
// beyond len(Models) fall back to Fresh. It expresses heterogeneous workers
// (one slow machine among fast ones).
type PerComponent struct{ Models []Model }

func (m PerComponent) Label(i, j int) int {
	if i >= 0 && i < len(m.Models) && m.Models[i] != nil {
		return m.Models[i].Label(i, j)
	}
	return clampLabel(j-1, j)
}

func (m PerComponent) Name() string { return "perComponent" }

// Monotone wraps a model and forces labels to be nondecreasing in j for
// each component (the Miellou / Mishchenko monotone-delay assumption).
// It is stateful and therefore not safe for concurrent use.
type Monotone struct {
	Inner Model
	last  map[int]int
}

// NewMonotone returns a monotone wrapper around inner.
func NewMonotone(inner Model) *Monotone {
	return &Monotone{Inner: inner, last: make(map[int]int)}
}

func (m *Monotone) Label(i, j int) int {
	l := m.Inner.Label(i, j)
	if prev, ok := m.last[i]; ok && l < prev {
		l = prev
	}
	m.last[i] = clampLabel(l, j)
	return m.last[i]
}

func (m *Monotone) Name() string { return "monotone(" + m.Inner.Name() + ")" }

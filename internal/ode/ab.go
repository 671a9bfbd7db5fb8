package ode

import "fmt"

// MaxABOrder is the highest Adams-Bashforth order supported. The paper
// uses the multi-step Adams-Bashforth formula "due to its simplicity and
// accuracy"; orders beyond 4 have shrinking stability regions that defeat
// the purpose for mildly stiff harvester models.
const MaxABOrder = 4

// ABStabilityFraction returns the fraction of the forward-Euler real-axis
// stability limit h_FE = 2/|lambda| available to the Adams-Bashforth
// method of the given order. The real-axis stability intervals of AB1..4
// are (-2, 0), (-1, 0), (-6/11, 0) and (-3/10, 0); the paper's
// diagonal-dominance criterion (Eqs. 6-7) bounds the one-step (Euler)
// march, so higher-order multistep updates must scale the resulting cap
// by this fraction.
func ABStabilityFraction(order int) float64 {
	switch order {
	case 1:
		return 1
	case 2:
		return 0.5
	case 3:
		return 3.0 / 11.0
	case 4:
		return 3.0 / 20.0
	default:
		panic(fmt.Sprintf("ode: ABStabilityFraction order %d out of range", order))
	}
}

// ABImagExtent returns the usable extent |h*lambda| of the AB stability
// region along the imaginary axis for oscillatory modes. AB3 and AB4
// genuinely include imaginary-axis segments (~0.72 and ~0.43); AB1 and
// AB2 are only tangent to the axis at the origin, so the returned values
// are practical limits that rely on the physical damping always present
// in the passive analogue blocks the paper targets (growth per step at
// these extents is < 1e-2 even for zero damping, and the order ramps past
// 2 within a few steps).
func ABImagExtent(order int) float64 {
	switch order {
	case 1:
		return 0.25
	case 2:
		return 0.35
	case 3:
		return 0.70
	case 4:
		return 0.40
	default:
		panic(fmt.Sprintf("ode: ABImagExtent order %d out of range", order))
	}
}

// ABCoeffs computes the variable-step Adams-Bashforth weights beta_i such
// that
//
//	x(t_n + h) = x(t_n) + sum_i beta_i * f(t_i, x_i)
//
// where times lists the history abscissae newest first (times[0] == t_n).
// The weights are the exact integrals over [t_n, t_n+h] of the Lagrange
// basis polynomials through the history points, so for uniformly spaced
// history they reduce to the classical AB coefficients (e.g. order 2:
// {3h/2, -h/2}). The order of the formula equals len(times).
//
// dst must have length len(times); it is returned for convenience.
func ABCoeffs(dst []float64, times []float64, h float64) []float64 {
	p := len(times)
	if p == 0 || p > MaxABOrder {
		panic(fmt.Sprintf("ode: ABCoeffs order %d out of range [1,%d]", p, MaxABOrder))
	}
	if len(dst) != p {
		panic("ode: ABCoeffs dst length mismatch")
	}
	// Work in the shifted variable s = tau - t_n, so history nodes are
	// s_i = times[i] - times[0] <= 0 and we integrate over [0, h].
	var s [MaxABOrder]float64
	for i := 0; i < p; i++ {
		s[i] = times[i] - times[0]
	}
	abWeights(dst, s[:p], h)
	return dst
}

// abWeights is ABCoeffs on the history offsets s[i] = times[i] - times[0]
// (len(s) = len(dst) = the order): the weights depend on h and the
// offsets alone, which is what lets WeightTable serve them by key.
func abWeights(dst, s []float64, h float64) {
	p := len(s)
	if p == 1 {
		dst[0] = h // Forward Euler
		return
	}
	// For each i build the numerator polynomial prod_{j != i}(x - s_j) by
	// convolution, evaluate its definite integral over [0, h], and divide
	// by the denominator prod_{j != i}(s_i - s_j).
	var poly [MaxABOrder]float64 // coefficients, poly[k] * s^k
	for i := 0; i < p; i++ {
		for k := range poly {
			poly[k] = 0
		}
		poly[0] = 1
		deg := 0
		den := 1.0
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			den *= s[i] - s[j]
			// poly *= (x - s_j): new[k] = old[k-1] - s_j*old[k], updated
			// from the top down so old values are still in place.
			for k := deg + 1; k >= 1; k-- {
				poly[k] = poly[k-1] - s[j]*poly[k]
			}
			poly[0] = -s[j] * poly[0]
			deg++
		}
		// Integrate: int_0^h sum_k poly[k] x^k dx = sum_k poly[k] h^{k+1}/(k+1).
		var integral float64
		hp := h
		for k := 0; k <= deg; k++ {
			integral += poly[k] * hp / float64(k+1)
			hp *= h
		}
		dst[i] = integral / den
	}
}

// History is a fixed-capacity ring of past derivative evaluations, newest
// first, as needed by the Adams-Bashforth formulas.
type History struct {
	n     int // state dimension
	cap   int
	count int
	head  int // index of the newest entry
	times []float64
	fs    [][]float64
}

// NewHistory returns a history for n states holding up to depth entries.
func NewHistory(n, depth int) *History {
	if depth < 1 || depth > MaxABOrder {
		panic(fmt.Sprintf("ode: history depth %d out of range", depth))
	}
	h := &History{n: n, cap: depth, times: make([]float64, depth), fs: make([][]float64, depth)}
	for i := range h.fs {
		h.fs[i] = make([]float64, n)
	}
	return h
}

// Depth returns the number of stored entries.
func (h *History) Depth() int { return h.count }

// Reset discards all stored entries.
func (h *History) Reset() { h.count, h.head = 0, 0 }

// Push records the derivative f evaluated at time t as the newest entry.
func (h *History) Push(t float64, f []float64) {
	if len(f) != h.n {
		panic("ode: History.Push dimension mismatch")
	}
	if h.head == 0 {
		h.head = h.cap
	}
	h.head--
	h.times[h.head] = t
	copy(h.fs[h.head], f)
	if h.count < h.cap {
		h.count++
	}
}

// Entry returns the i-th newest entry (0 = newest). The returned slice is
// a view into the ring and must not be modified.
func (h *History) Entry(i int) (t float64, f []float64) {
	if i < 0 || i >= h.count {
		panic("ode: History.Entry out of range")
	}
	k := h.head + i
	if k >= h.cap {
		k -= h.cap
	}
	return h.times[k], h.fs[k]
}

// Times fills dst with the stored abscissae, newest first, returning the
// filled prefix.
func (h *History) Times(dst []float64) []float64 {
	if len(dst) < h.count {
		panic("ode: History.Times dst too small")
	}
	for i := 0; i < h.count; i++ {
		k := h.head + i
		if k >= h.cap {
			k -= h.cap
		}
		dst[i] = h.times[k]
	}
	return dst[:h.count]
}

// AdamsBashforth is a self-starting variable-step Adams-Bashforth
// integrator: it begins at order 1 (Forward Euler) and raises the order
// as history accumulates, up to the configured target order. After a
// Reset (e.g. a digital event discontinuity) it restarts at order 1.
type AdamsBashforth struct {
	target int
	hist   *History
	coeffs []float64
	times  []float64
	fnow   []float64
	boot   *RK4 // bootstrap integrator while the history fills
}

// NewAdamsBashforth returns an AB integrator of the given target order
// (1..MaxABOrder) for n states.
func NewAdamsBashforth(n, order int) *AdamsBashforth {
	if order < 1 || order > MaxABOrder {
		panic(fmt.Sprintf("ode: AB order %d out of range [1,%d]", order, MaxABOrder))
	}
	return &AdamsBashforth{
		target: order,
		hist:   NewHistory(n, order),
		coeffs: make([]float64, order),
		times:  make([]float64, order),
		fnow:   make([]float64, n),
		boot:   NewRK4(n),
	}
}

func (ab *AdamsBashforth) Name() string {
	return fmt.Sprintf("adams-bashforth-%d", ab.target)
}

func (ab *AdamsBashforth) Order() int { return ab.target }

// CurrentOrder returns the order the next step will use (grows from 1).
func (ab *AdamsBashforth) CurrentOrder() int {
	if o := ab.hist.Depth() + 1; o < ab.target {
		return o
	}
	return ab.target
}

func (ab *AdamsBashforth) Reset() { ab.hist.Reset() }

// Step advances from (t, x) to t+h. The derivative at (t, x) is evaluated
// once and pushed into the history; while the history is still filling,
// the state update itself is delegated to an embedded RK4 step so the
// startup error does not degrade the asymptotic order of the multistep
// formula. Once enough history exists, the variable-step Adams-Bashforth
// formula of the target order is applied.
func (ab *AdamsBashforth) Step(f RHS, t, h float64, x, xNext []float64) {
	f(t, x, ab.fnow)
	ab.hist.Push(t, ab.fnow)
	p := ab.hist.Depth()
	if p < ab.target {
		ab.boot.Step(f, t, h, x, xNext)
		return
	}
	times := ab.hist.Times(ab.times[:p])
	coeffs := ABCoeffs(ab.coeffs[:p], times, h)
	copy(xNext, x)
	for i := 0; i < p; i++ {
		_, fi := ab.hist.Entry(i)
		c := coeffs[i]
		for k := range xNext {
			xNext[k] += c * fi[k]
		}
	}
}

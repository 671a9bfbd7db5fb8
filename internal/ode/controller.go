package ode

import "math"

// Controller implements the combined step-size policy of the paper's
// Section II: the step is bounded above by the stability limit derived
// from diagonal dominance of the point total-step matrix (Eq. 7), and
// within that limit it is adapted to the local truncation error estimate.
// For strongly stiff systems the stability cap binds and no speed
// advantage remains — exactly the limitation the paper states.
type Controller struct {
	Atol   float64 // absolute error tolerance per step
	Rtol   float64 // relative error tolerance per step
	Safety float64 // safety factor on the accuracy step (typ. 0.9)

	MinFactor float64 // largest allowed step shrink per adjustment (typ. 0.2)
	MaxFactor float64 // largest allowed step growth per adjustment (typ. 2.0)

	HMin float64 // hard floor on the step
	HMax float64 // hard ceiling on the step (e.g. waveform resolution)

	StabilityMargin float64 // fraction of the stability limit to use (typ. 0.9)
}

// DefaultController returns the tolerances used by the harvester
// simulations: mid-accuracy analogue tolerances comparable to a SPICE
// reltol of 1e-3.
func DefaultController() Controller {
	return Controller{
		Atol:            1e-6,
		Rtol:            1e-3,
		Safety:          0.9,
		MinFactor:       0.2,
		MaxFactor:       2.0,
		HMin:            1e-9,
		HMax:            1e-3,
		StabilityMargin: 0.9,
	}
}

// Clamp restricts h to [HMin, min(HMax, StabilityMargin*hStab)].
func (c *Controller) Clamp(h, hStab float64) float64 {
	hi := c.ceiling(hStab)
	if h > hi {
		h = hi
	}
	if h < c.HMin {
		h = c.HMin
	}
	return h
}

// ceiling returns the upper bound Clamp applies:
// min(HMax, StabilityMargin*hStab).
func (c *Controller) ceiling(hStab float64) float64 {
	hi := c.HMax
	if s := c.StabilityMargin * hStab; s < hi {
		hi = s
	}
	return hi
}

// Decide returns whether a step with weighted error norm errNorm (<= 1
// means within tolerance) is accepted, and the suggested next step size.
// order is the order of the formula that produced the error estimate.
// hStab is the current stability cap (+Inf if none).
func (c *Controller) Decide(h, errNorm float64, order int, hStab float64) (accept bool, hNext float64) {
	accept = errNorm <= 1 || math.IsNaN(errNorm) || h <= c.HMin*(1+1e-12)
	var factor float64
	switch {
	case errNorm <= 0 || math.IsNaN(errNorm):
		// No usable estimate (or a clean linear segment): grow cautiously.
		factor = c.MaxFactor
	default:
		if hNext, ok := c.capped(h, errNorm, order, hStab); ok {
			return accept, hNext
		}
		factor = c.Safety * math.Pow(errNorm, -1/float64(order+1))
	}
	if math.IsNaN(factor) || factor < c.MinFactor {
		factor = c.MinFactor
	}
	if factor > c.MaxFactor {
		factor = c.MaxFactor
	}
	hNext = c.Clamp(h*factor, hStab)
	return accept, hNext
}

// capped returns Decide's suggestion without its math.Pow when the error
// is small enough that the exact factor Safety*errNorm^(-1/(order+1))
// surely exceeds T = min(MaxFactor, hi/h)*(1+1e-9), hi = ceiling(hStab).
// Past T the result no longer depends on the factor: it is
// Clamp(h*MaxFactor) when MaxFactor <= hi/h (the factor clips to
// MaxFactor) and Clamp(hi) otherwise (h times any factor above hi/h
// rounds to at least hi), the bits Decide's Pow path returns. The test
// errNorm < (Safety/T)^(order+1)*(1-1e-6) is evaluated by
// multiplication; both margins are about 1e7 times the error of Pow and
// of that product, so an input near the boundary falls to Pow, never
// into the wrong branch. This is the common case under the Eq. 7 cap,
// where the stability limit, not accuracy, sets the step; the implicit
// engines (hStab = +Inf) take it at HMax.
func (c *Controller) capped(h, errNorm float64, order int, hStab float64) (hNext float64, ok bool) {
	hi := c.ceiling(hStab)
	if order < 1 || !(c.Safety > 0) || !(h > 0) || !(hi > 0) {
		return 0, false
	}
	grow, toCeiling := c.MaxFactor, false
	if r := hi / h; r < grow {
		grow, toCeiling = r, true
	}
	top := grow * (1 + 1e-9)
	if !(top > 0) {
		return 0, false
	}
	q := c.Safety / top
	thr := q
	for i := 0; i < order; i++ {
		thr *= q
	}
	thr *= 1 - 1e-6
	// A subnormal or overflowed threshold has lost the margin.
	if !(errNorm < thr) || thr < 0x1p-1022 || thr > math.MaxFloat64 {
		return 0, false
	}
	if toCeiling {
		return c.Clamp(hi, hStab), true
	}
	return c.Clamp(h*c.MaxFactor, hStab), true
}

// ErrNorm computes the weighted RMS norm of the estimate est against the
// reference state ref, such that a value of 1 sits exactly on tolerance.
func (c *Controller) ErrNorm(est, ref []float64) float64 {
	if len(est) != len(ref) {
		panic("ode: ErrNorm length mismatch")
	}
	if len(est) == 0 {
		return 0
	}
	var s float64
	for i, e := range est {
		w := c.Atol + c.Rtol*math.Abs(ref[i])
		r := e / w
		s += r * r
	}
	return math.Sqrt(s / float64(len(est)))
}

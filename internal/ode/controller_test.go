package ode

import (
	"math"
	"math/rand"
	"testing"
)

func TestControllerClamp(t *testing.T) {
	c := DefaultController()
	c.HMin, c.HMax, c.StabilityMargin = 1e-6, 1e-3, 0.9
	if got := c.Clamp(1, math.Inf(1)); got != 1e-3 {
		t.Fatalf("Clamp to HMax: %v", got)
	}
	if got := c.Clamp(1e-9, math.Inf(1)); got != 1e-6 {
		t.Fatalf("Clamp to HMin: %v", got)
	}
	if got := c.Clamp(1e-3, 1e-4); math.Abs(got-0.9e-4) > 1e-18 {
		t.Fatalf("Clamp to stability: %v", got)
	}
}

func TestControllerDecideAcceptAndGrow(t *testing.T) {
	c := DefaultController()
	c.HMax = 1
	accept, hNext := c.Decide(0.01, 0.1, 2, math.Inf(1))
	if !accept {
		t.Fatalf("errNorm 0.1 should be accepted")
	}
	if hNext <= 0.01 {
		t.Fatalf("small error should grow the step, got %v", hNext)
	}
	if hNext > 0.02+1e-12 {
		t.Fatalf("growth should be bounded by MaxFactor: %v", hNext)
	}
}

func TestControllerDecideRejectAndShrink(t *testing.T) {
	c := DefaultController()
	accept, hNext := c.Decide(1e-4, 50, 2, math.Inf(1))
	if accept {
		t.Fatalf("errNorm 50 should be rejected")
	}
	if hNext >= 1e-4 {
		t.Fatalf("rejected step should shrink, got %v", hNext)
	}
	if hNext < 0.2*1e-4-1e-18 {
		t.Fatalf("shrink should be bounded by MinFactor: %v", hNext)
	}
}

func TestControllerAcceptsAtFloor(t *testing.T) {
	c := DefaultController()
	c.HMin = 1e-6
	accept, _ := c.Decide(1e-6, 100, 2, math.Inf(1))
	if !accept {
		t.Fatalf("step at HMin must be accepted to guarantee progress")
	}
}

func TestControllerZeroOrNaNError(t *testing.T) {
	c := DefaultController()
	accept, hNext := c.Decide(1e-5, 0, 3, math.Inf(1))
	if !accept || hNext < 1e-5 {
		t.Fatalf("zero error should accept and grow: %v %v", accept, hNext)
	}
	accept, hNext = c.Decide(1e-5, math.NaN(), 3, math.Inf(1))
	if !accept || hNext <= 0 {
		t.Fatalf("NaN error treated as no-estimate: %v %v", accept, hNext)
	}
}

func TestControllerErrNorm(t *testing.T) {
	c := Controller{Atol: 1, Rtol: 0}
	if got := c.ErrNorm([]float64{3, 4}, []float64{0, 0}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("ErrNorm = %v", got)
	}
	if c.ErrNorm(nil, nil) != 0 {
		t.Fatalf("empty ErrNorm should be 0")
	}
	c2 := Controller{Atol: 0, Rtol: 0.1}
	// err 0.5 against ref 10 -> weight 1 -> norm 0.5.
	if got := c2.ErrNorm([]float64{0.5}, []float64{10}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("relative ErrNorm = %v", got)
	}
}

func TestControllerStabilityCapBindsGrowth(t *testing.T) {
	c := DefaultController()
	c.HMax = 1
	// Tiny error wants to double the step, but stability cap holds it.
	_, hNext := c.Decide(0.01, 1e-8, 4, 0.012)
	if hNext > 0.9*0.012+1e-15 {
		t.Fatalf("stability cap violated: %v", hNext)
	}
}

// decideByPow is Decide with math.Pow on every positive error, the
// reference the step factor's shortcut must reproduce bit for bit.
func decideByPow(c *Controller, h, errNorm float64, order int, hStab float64) (bool, float64) {
	accept := errNorm <= 1 || math.IsNaN(errNorm) || h <= c.HMin*(1+1e-12)
	var factor float64
	switch {
	case errNorm <= 0 || math.IsNaN(errNorm):
		factor = c.MaxFactor
	default:
		factor = c.Safety * math.Pow(errNorm, -1/float64(order+1))
	}
	if math.IsNaN(factor) || factor < c.MinFactor {
		factor = c.MinFactor
	}
	if factor > c.MaxFactor {
		factor = c.MaxFactor
	}
	return accept, c.Clamp(h*factor, hStab)
}

// sameDecision fails unless Decide and decideByPow agree bit for bit.
func sameDecision(t *testing.T, c *Controller, h, errNorm float64, order int, hStab float64) {
	t.Helper()
	acc, got := c.Decide(h, errNorm, order, hStab)
	wantAcc, want := decideByPow(c, h, errNorm, order, hStab)
	if acc != wantAcc || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Decide(h=%v, err=%v, order=%d, hStab=%v) with %+v = %v, %v (%x); Pow path %v, %v (%x)",
			h, errNorm, order, hStab, *c, acc, got, math.Float64bits(got), wantAcc, want, math.Float64bits(want))
	}
}

// TestDecideMatchesPowPath: Decide's Pow-free shortcut returns the Pow
// path's bits on random inputs across the controller settings (default,
// an HMin the suggestion clamps to, a low HMax, a MinFactor above
// MaxFactor), with hStab = +Inf, 0 and random caps, and errors that are
// 0, NaN, ±Inf, negative, subnormal or random over many decades; and on
// a scan of errors within a few hundred ulps of each boundary the
// shortcut's margins keep it from: the exact boundary
// (Safety/T)^(order+1), T = min(MaxFactor, hi/h), and the margined one.
func TestDecideMatchesPowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctls := []Controller{DefaultController(), DefaultController(), DefaultController(), DefaultController()}
	ctls[1].HMin = 5e-5
	ctls[2].HMax = 3e-6
	ctls[3].MinFactor, ctls[3].MaxFactor = 3, 1.5
	specialErr := []float64{0, math.NaN(), math.Inf(1), -1, 5e-324, 1e-300, 1, 1e300}
	for n := 0; n < 20000; n++ {
		c := &ctls[n%len(ctls)]
		h := math.Pow(10, -9+7*rng.Float64())
		order := 1 + rng.Intn(4)
		var hStab float64
		switch r := rng.Intn(8); {
		case r == 0:
			hStab = math.Inf(1)
		case r == 1:
			hStab = 0
		case r == 2:
			hStab = h * (0.5 + rng.Float64()) // the cap near the step
		default:
			hStab = math.Pow(10, -9+7*rng.Float64())
		}
		errNorm := math.Pow(10, -14+17*rng.Float64())
		if rng.Intn(10) == 0 {
			errNorm = specialErr[rng.Intn(len(specialErr))]
		}
		sameDecision(t, c, h, errNorm, order, hStab)
	}
	// Boundary scans.
	for n := 0; n < 400; n++ {
		c := &ctls[n%len(ctls)]
		h := math.Pow(10, -7+4*rng.Float64())
		order := 1 + rng.Intn(4)
		hStab := math.Inf(1)
		if n%3 != 0 {
			hStab = h * (0.3 + 3*rng.Float64())
		}
		hi := c.ceiling(hStab)
		top := math.Min(c.MaxFactor, hi/h)
		q := c.Safety / top
		edge := q
		for i := 0; i < order; i++ {
			edge *= q
		}
		for _, e0 := range []float64{edge, edge * (1 - 1e-6)} {
			e := e0
			for i := 0; i < 200; i++ {
				e = math.Nextafter(e, 0)
			}
			for i := 0; i < 400; i++ {
				sameDecision(t, c, h, e, order, hStab)
				e = math.Nextafter(e, math.Inf(1))
			}
		}
	}
}

// TestDecideShortcutTaken: the shortcut serves the cap-bound case it is
// for, the same suggestion at hStab = +Inf (HMax binds), and falls back
// to Pow for an error near tolerance.
func TestDecideShortcutTaken(t *testing.T) {
	c := DefaultController()
	if _, ok := c.capped(1e-5, 1e-4, 4, 1e-5); !ok {
		t.Error("a small error under a binding stability cap took the Pow path")
	}
	if h, ok := c.capped(1e-3, 1e-4, 2, math.Inf(1)); !ok || h != c.HMax {
		t.Errorf("at hStab = +Inf: %v, %v; want HMax %v via the shortcut", h, ok, c.HMax)
	}
	if _, ok := c.capped(1e-5, 0.5, 4, 1); ok {
		t.Error("an error near tolerance skipped Pow")
	}
}

package pwl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(math.Sin, 0, 1, 0); err == nil {
		t.Fatalf("n=0 should error")
	}
	if _, err := Build(math.Sin, 1, 1, 4); err == nil {
		t.Fatalf("empty interval should error")
	}
	if _, err := Build(func(v float64) float64 { return math.Inf(1) }, 0, 1, 4); err == nil {
		t.Fatalf("non-finite f should error")
	}
}

func TestLinearFunctionIsExact(t *testing.T) {
	f := func(v float64) float64 { return 3*v - 2 }
	tab := MustBuild(f, -5, 5, 7)
	for _, v := range []float64{-5, -1.3, 0, 2.2, 4.999, 5, 6, -9} {
		if got := tab.Eval(v); math.Abs(got-f(v)) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want %v", v, got, f(v))
		}
		g, j := tab.Lookup(v)
		if math.Abs(g-3) > 1e-12 || math.Abs(j-(-2)) > 1e-12 {
			t.Fatalf("Lookup(%v) = (%v, %v), want (3, -2)", v, g, j)
		}
	}
}

func TestSegmentIndexBoundaries(t *testing.T) {
	tab := MustBuild(func(v float64) float64 { return v * v }, 0, 1, 4)
	cases := []struct {
		v    float64
		want int
	}{
		{-0.1, -1}, {0, 0}, {0.24, 0}, {0.25, 1}, {0.5, 2}, {0.99, 3}, {1.0, 4}, {2, 4},
	}
	for _, c := range cases {
		if got := tab.SegmentIndex(c.v); got != c.want {
			t.Fatalf("SegmentIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestInterpolationNodesExact(t *testing.T) {
	f := math.Exp
	tab := MustBuild(f, -1, 1, 16)
	for k := 0; k <= 16; k++ {
		v := -1 + 2*float64(k)/16
		if math.Abs(tab.Eval(v)-f(v)) > 1e-12 {
			t.Fatalf("node %v not interpolated exactly: %v vs %v", v, tab.Eval(v), f(v))
		}
	}
}

func TestErrorShrinksWithGranularity(t *testing.T) {
	f := func(v float64) float64 { return math.Exp(2 * v) }
	var prev float64 = math.Inf(1)
	for _, n := range []int{8, 32, 128, 512} {
		tab := MustBuild(f, -1, 1, n)
		e := tab.MaxAbsError(f, 13)
		if e >= prev {
			t.Fatalf("error did not shrink: n=%d err=%v prev=%v", n, e, prev)
		}
		prev = e
	}
	// Piecewise-linear interpolation is second order: quadrupling the
	// segment count should shrink the error by roughly 16x.
	tabA := MustBuild(f, -1, 1, 64)
	tabB := MustBuild(f, -1, 1, 256)
	ratio := tabA.MaxAbsError(f, 17) / tabB.MaxAbsError(f, 17)
	if ratio < 8 || ratio > 32 {
		t.Fatalf("convergence ratio = %v, want ~16", ratio)
	}
}

func TestPropertyTableMatchesFunctionWithinBound(t *testing.T) {
	// Property: for smooth f (here a cubic with bounded second derivative
	// on the window), max error <= M2*dv^2/8 with M2 = max|f''|.
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a2 := r.NormFloat64()
		a1 := r.NormFloat64()
		a0 := r.NormFloat64()
		fn := func(v float64) float64 { return a2*v*v + a1*v + a0 }
		n := 4 + int(nRaw%60)
		tab, err := Build(fn, -2, 2, n)
		if err != nil {
			return false
		}
		dv := 4.0 / float64(n)
		bound := math.Abs(2*a2)*dv*dv/8 + 1e-9
		return tab.MaxAbsError(fn, 9) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestExtrapolationContinuesEdgeSlope(t *testing.T) {
	f := func(v float64) float64 { return 2 * v }
	tab := MustBuild(f, 0, 1, 4)
	if got := tab.Eval(3); math.Abs(got-6) > 1e-12 {
		t.Fatalf("high extrapolation = %v, want 6", got)
	}
	if got := tab.Eval(-2); math.Abs(got-(-4)) > 1e-12 {
		t.Fatalf("low extrapolation = %v, want -4", got)
	}
}

func TestDomainAndNumSegments(t *testing.T) {
	tab := MustBuild(math.Sin, -3, 4, 10)
	lo, hi := tab.Domain()
	if lo != -3 || hi != 4 || tab.NumSegments() != 10 {
		t.Fatalf("domain/segments wrong: [%v %v] n=%d", lo, hi, tab.NumSegments())
	}
}

func TestLookupIsContinuousAcrossSegments(t *testing.T) {
	// The PWL model must be continuous: at the boundary between segments
	// the two linear pieces agree. Discontinuities would inject artificial
	// charge into the simulated circuit.
	tab := MustBuild(func(v float64) float64 { return math.Exp(v) }, -2, 2, 33)
	for k := 0; k < tab.NumSegments()-1; k++ {
		vb := tab.cells[k].v1
		left := tab.cells[k].g*vb + tab.cells[k].j
		right := tab.cells[k+1].g*vb + tab.cells[k+1].j
		if math.Abs(left-right) > 1e-12*(1+math.Abs(left)) {
			t.Fatalf("discontinuity at segment %d boundary %v: %v vs %v", k, vb, left, right)
		}
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustBuild should panic on invalid input")
		}
	}()
	MustBuild(math.Sin, 0, -1, 4)
}

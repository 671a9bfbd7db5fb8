package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLUSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	_, err := Solve(a, []float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestLUSolveBeforeFactor(t *testing.T) {
	f := NewLU(2)
	if err := f.Solve(make([]float64, 2), []float64{1, 2}); err == nil {
		t.Fatalf("Solve before Factor should error")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	f := NewLU(2)
	if err := f.Factor(a); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if d := f.Det(); math.Abs(d-(-6)) > 1e-12 {
		t.Fatalf("Det = %v, want -6", d)
	}
}

func TestLUAliasedSolve(t *testing.T) {
	a := FromRows([][]float64{{3, 1}, {1, 2}})
	f := NewLU(2)
	if err := f.Factor(a); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	xb := []float64{9, 8}
	if err := f.Solve(xb, xb); err != nil {
		t.Fatalf("aliased Solve: %v", err)
	}
	if math.Abs(xb[0]-2) > 1e-12 || math.Abs(xb[1]-3) > 1e-12 {
		t.Fatalf("aliased solve wrong: %v", xb)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	a := FromRows([][]float64{{2, 0, 1}, {1, 3, 0}, {0, 1, 4}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	prod := NewMatrix(3, 3)
	Mul(prod, a, inv)
	if !prod.Equalish(Identity(3), 1e-12) {
		t.Fatalf("A*A^-1 != I:\n%v", prod)
	}
}

// randDiagDominant builds a random strictly diagonally dominant matrix,
// which is guaranteed non-singular. This is the matrix class the paper's
// stability argument relies on for passive systems.
func randDiagDominant(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.NormFloat64()
			m.Set(i, j, v)
			sum += math.Abs(v)
		}
		d := sum + 0.5 + rng.Float64()
		if rng.Intn(2) == 0 {
			d = -d
		}
		m.Set(i, i, d)
	}
	return m
}

func TestLUPropertySolveResidual(t *testing.T) {
	// Property: for random diagonally dominant A and random b, the residual
	// ||A x - b|| is tiny relative to ||b||.
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + int(sizeRaw%12)
		a := randDiagDominant(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		a.MulVec(res, x)
		SubTo(res, res, b)
		scale := NormInfVec(b) + 1
		return NormInfVec(res) <= 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestLUPropertyInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, sizeRaw uint8) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + int(sizeRaw%8)
		a := randDiagDominant(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		prod := NewMatrix(n, n)
		Mul(prod, a, inv)
		return prod.Equalish(Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestLUReuseAcrossFactorings(t *testing.T) {
	f := NewLU(2)
	a1 := FromRows([][]float64{{2, 0}, {0, 2}})
	a2 := FromRows([][]float64{{0, 1}, {1, 0}}) // needs pivoting
	x := make([]float64, 2)
	if err := f.Factor(a1); err != nil {
		t.Fatalf("Factor a1: %v", err)
	}
	if err := f.Solve(x, []float64{2, 4}); err != nil {
		t.Fatalf("Solve a1: %v", err)
	}
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("a1 solve = %v", x)
	}
	if err := f.Factor(a2); err != nil {
		t.Fatalf("Factor a2: %v", err)
	}
	if err := f.Solve(x, []float64{3, 5}); err != nil {
		t.Fatalf("Solve a2: %v", err)
	}
	if x[0] != 5 || x[1] != 3 {
		t.Fatalf("a2 solve = %v", x)
	}
}

func TestSolveMatrix(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {0, 2}})
	f := NewLU(2)
	if err := f.Factor(a); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	b := FromRows([][]float64{{3, 1}, {4, 2}})
	x := NewMatrix(2, 2)
	if err := f.SolveMatrix(x, b); err != nil {
		t.Fatalf("SolveMatrix: %v", err)
	}
	// col0: x0+x1=3, 2x1=4 -> [1,2]; col1: [0,1]
	want := FromRows([][]float64{{1, 0}, {2, 1}})
	if !x.Equalish(want, 1e-12) {
		t.Fatalf("SolveMatrix = %v, want %v", x, want)
	}
}

// TestSolveMatrixMatchesSolveBits pins the one-pass SolveMatrix to
// per-column Solve bit for bit, for n = 1..12 and 1..15 right-hand
// sides: sparse general matrices, an all-zero column, signed zeros and
// non-finite entries, and X aliasing B.
func TestSolveMatrixMatchesSolveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pivoted := 0
	col, sol := make([]float64, 12), make([]float64, 12)
	for n := 1; n <= 12; n++ {
		// Sparse general matrices: the factorisations pivot, and their
		// zero multipliers meet the non-finite right-hand sides.
		a := NewMatrix(n, n)
		f := NewLU(n)
		for {
			for i := range a.Data {
				a.Data[i] = 0
				if rng.Intn(3) > 0 {
					a.Data[i] = rng.NormFloat64()
				}
			}
			if f.Factor(a) == nil {
				break
			}
		}
		for i, p := range f.piv {
			if p != i {
				pivoted++
				break
			}
		}
		for m := 1; m <= 15; m++ {
			b := NewMatrix(n, m)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
			for i := 0; i < n; i++ {
				b.Set(i, 0, 0)
			}
			if m > 1 {
				b.Set(rng.Intn(n), 1, math.Copysign(0, -1))
			}
			if m > 2 {
				b.Set(rng.Intn(n), 2, math.Inf(1-2*rng.Intn(2)))
			}
			if m > 3 {
				b.Set(rng.Intn(n), 3, math.NaN())
			}
			want := NewMatrix(n, m)
			for c := 0; c < m; c++ {
				for i := 0; i < n; i++ {
					col[i] = b.At(i, c)
				}
				if err := f.Solve(sol[:n], col[:n]); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					want.Set(i, c, sol[i])
				}
			}
			x := NewMatrix(n, m)
			if err := f.SolveMatrix(x, b); err != nil {
				t.Fatal(err)
			}
			alias := b.Clone()
			if err := f.SolveMatrix(alias, alias); err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				w := math.Float64bits(want.Data[i])
				if g := math.Float64bits(x.Data[i]); g != w {
					t.Fatalf("n=%d m=%d entry %d: SolveMatrix %x, Solve %x", n, m, i, g, w)
				}
				if g := math.Float64bits(alias.Data[i]); g != w {
					t.Fatalf("n=%d m=%d entry %d: aliased SolveMatrix %x, Solve %x", n, m, i, g, w)
				}
			}
		}
	}
	if pivoted == 0 {
		t.Fatal("no factorisation pivoted: the permutation path went untested")
	}
	if err := NewLU(2).SolveMatrix(NewMatrix(2, 1), NewMatrix(2, 1)); err == nil {
		t.Fatal("SolveMatrix before Factor returned no error")
	}
}

func TestRcondEstimate(t *testing.T) {
	wellCond := Identity(4)
	f := NewLU(4)
	if err := f.Factor(wellCond); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if rc := f.RcondEstimate(wellCond); rc < 0.5 {
		t.Fatalf("identity rcond estimate = %v, want ~1", rc)
	}
	// Nearly singular matrix should have a small estimate.
	almost := FromRows([][]float64{{1, 1}, {1, 1 + 1e-10}})
	f2 := NewLU(2)
	if err := f2.Factor(almost); err != nil {
		t.Fatalf("Factor: %v", err)
	}
	if rc := f2.RcondEstimate(almost); rc > 1e-6 {
		t.Fatalf("near-singular rcond estimate = %v, want tiny", rc)
	}
}

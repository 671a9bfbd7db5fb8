package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation meets a pivot that is zero
// (or numerically indistinguishable from zero).
var ErrSingular = errors.New("la: matrix is singular")

// LU holds an LU factorisation with partial pivoting: P*A = L*U. It is
// reusable: Factor, Solve and SolveMatrix may be called repeatedly on
// matrices of the same size without allocating — all scratch storage is
// owned by the workspace, so the factorise/solve cycle inside a
// simulation inner loop stays heap-free.
type LU struct {
	n    int
	lu   *Matrix // combined L (unit lower) and U (upper)
	piv  []int   // row permutation
	sign int     // +1 or -1: parity of the permutation
	ok   bool

	tmp []float64 // aliased-solve permutation scratch
}

// NewLU returns an LU workspace for n x n systems.
func NewLU(n int) *LU {
	return &LU{
		n:   n,
		lu:  NewMatrix(n, n),
		piv: make([]int, n),
		tmp: make([]float64, n),
	}
}

// N returns the system size.
func (f *LU) N() int { return f.n }

// Factor computes the factorisation of a. a is not modified.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != f.n || a.Cols != f.n {
		panic(fmt.Sprintf("la: LU.Factor size mismatch: %dx%d, want %dx%d", a.Rows, a.Cols, f.n, f.n))
	}
	f.lu.CopyFrom(a)
	f.sign = 1
	f.ok = false
	n := f.n
	lu := f.lu.Data
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest entry in column k at or below row k.
		p := k
		max := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu[i*n+k]); a > max {
				max = a
				p = i
			}
		}
		if max == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP := lu[p*n : (p+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := range rowK {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu[i*n : (i+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	f.ok = true
	return nil
}

// Solve computes x such that A*x = b, writing the result into x. b is not
// modified. x and b may alias.
func (f *LU) Solve(x, b []float64) error {
	if !f.ok {
		return errors.New("la: LU.Solve called before a successful Factor")
	}
	n := f.n
	if len(x) != n || len(b) != n {
		panic("la: LU.Solve length mismatch")
	}
	lu := f.lu.Data
	// Apply permutation: x = P*b.
	if &x[0] == &b[0] {
		for i := 0; i < n; i++ {
			f.tmp[i] = b[f.piv[i]]
		}
		copy(x, f.tmp)
	} else {
		for i := 0; i < n; i++ {
			x[i] = b[f.piv[i]]
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}

// SolveMatrix solves A*X = B for every column of B in one row-oriented
// pass. X must be n x B.Cols; X and B may alias. Each column gets
// exactly Solve's operations in Solve's order — the row permutation,
// unit-L forward substitution and U back substitution with every inner
// sum in ascending j, then the division by the pivot — so column c of X
// is bit for bit the Solve of column c of B.
func (f *LU) SolveMatrix(x, b *Matrix) error {
	if b.Rows != f.n || x.Rows != f.n || x.Cols != b.Cols {
		panic("la: LU.SolveMatrix size mismatch")
	}
	if !f.ok {
		return errors.New("la: LU.SolveMatrix called before a successful Factor")
	}
	n, m := f.n, b.Cols
	if n == 0 || m == 0 {
		return nil
	}
	lu, xd := f.lu.Data, x.Data
	// Apply permutation: X = P*B.
	if &xd[0] == &b.Data[0] {
		for c := 0; c < m; c++ {
			for i := 0; i < n; i++ {
				f.tmp[i] = xd[f.piv[i]*m+c]
			}
			for i := 0; i < n; i++ {
				xd[i*m+c] = f.tmp[i]
			}
		}
	} else {
		for i := 0; i < n; i++ {
			copy(x.Row(i), b.Row(f.piv[i]))
		}
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		xi := xd[i*m : (i+1)*m]
		for j := 0; j < i; j++ {
			l := lu[i*n+j]
			xj := xd[j*m : (j+1)*m]
			for c := range xi {
				xi[c] -= l * xj[c]
			}
		}
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : (i+1)*n]
		xi := xd[i*m : (i+1)*m]
		for j := i + 1; j < n; j++ {
			u := row[j]
			xj := xd[j*m : (j+1)*m]
			for c := range xi {
				xi[c] -= u * xj[c]
			}
		}
		p := row[i]
		for c := range xi {
			xi[c] /= p
		}
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	if !f.ok {
		return math.NaN()
	}
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.Data[i*f.n+i]
	}
	return d
}

// RcondEstimate returns a cheap reciprocal-condition estimate
// 1/(||A||_inf * ||A^-1||_inf) with ||A^-1|| estimated from a few solves.
// It is an estimate, not a bound, and is used only for diagnostics.
func (f *LU) RcondEstimate(a *Matrix) float64 {
	if !f.ok {
		return 0
	}
	n := f.n
	normA := a.NormInf()
	if normA == 0 {
		return 0
	}
	// Estimate ||A^-1||_inf by solving for the all-ones vector and a few
	// alternating-sign vectors, taking the worst amplification.
	b := make([]float64, n)
	x := make([]float64, n)
	var worst float64
	for trial := 0; trial < 3; trial++ {
		for i := range b {
			switch trial {
			case 0:
				b[i] = 1
			case 1:
				if i%2 == 0 {
					b[i] = 1
				} else {
					b[i] = -1
				}
			default:
				b[i] = 1 / float64(i+1)
			}
		}
		if err := f.Solve(x, b); err != nil {
			return 0
		}
		if amp := NormInfVec(x) / NormInfVec(b); amp > worst {
			worst = amp
		}
	}
	if worst == 0 {
		return 0
	}
	return 1 / (normA * worst)
}

// Solve is a convenience one-shot solver for A*x = b. For repeated solves
// with the same structure, use an LU workspace.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f := NewLU(a.Rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := f.Solve(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// Inverse returns A^-1.
func Inverse(a *Matrix) (*Matrix, error) {
	f := NewLU(a.Rows)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	inv := NewMatrix(a.Rows, a.Rows)
	if err := f.SolveMatrix(inv, Identity(a.Rows)); err != nil {
		return nil, err
	}
	return inv, nil
}

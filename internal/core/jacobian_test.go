package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"harvsim/internal/la"
)

// shapeBlock is a single block spanning the whole system — nx states, ny
// terminals and ny equations — so its local stamp indices are global.
// It stamps nothing itself; the tests drive its Stamp directly.
type shapeBlock struct{ nx, ny int }

func (b *shapeBlock) Name() string      { return "shape" }
func (b *shapeBlock) NumStates() int    { return b.nx }
func (b *shapeBlock) NumEquations() int { return b.ny }
func (b *shapeBlock) Terminals() []string {
	names := make([]string, b.ny)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	return names
}
func (b *shapeBlock) InitState([]float64)                                 {}
func (b *shapeBlock) Linearise(float64, []float64, []float64, Stamp) bool { return false }
func (b *shapeBlock) EvalNonlinear(t float64, x, y, fx, fy []float64)     {}
func (b *shapeBlock) JacNonlinear(float64, []float64, []float64, Stamp)   {}

// refJacChange is the full scan the change log replaced: the largest
// relative change |cur−prev|/(1+|prev|) of any entry of the four
// Jacobian blocks against a snapshot taken at the previous refresh.
func refJacChange(cur, prev [4]*la.Matrix) float64 {
	var worst float64
	for m := range cur {
		c, p := cur[m].Data, prev[m].Data
		for i := range c {
			d := math.Abs(c[i] - p[i])
			if d == 0 {
				continue
			}
			r := d / (1 + math.Abs(p[i]))
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

func jacBlocks(s *System) [4]*la.Matrix { return [4]*la.Matrix{s.Jxx, s.Jxy, s.Jyx, s.Jyy} }

func snapshot(s *System) [4]*la.Matrix {
	var out [4]*la.Matrix
	for q, m := range jacBlocks(s) {
		out[q] = m.Clone()
	}
	return out
}

// stampAt writes v to entry (i, j) of quadrant q through st.
func stampAt(st Stamp, q, i, j int, v float64) {
	switch q {
	case qxx:
		st.A(i, j, v)
	case qxy:
		st.B(i, j, v)
	case qyx:
		st.C(i, j, v)
	default:
		st.D(i, j, v)
	}
}

// TestJacobianLogMatchesFullScan drives seeded random stamp sequences
// through a System and requires the change log's drift to equal, in
// math.Float64bits, the full scan over a snapshot of the previous
// refresh. The sequences repeat writes to one entry, write entries back
// to their refresh-time value, write ±0, NaN and ±Inf, reach all four
// blocks, and interleave unlogged JacNonlinear stamps (followed by a
// discarded refresh, as an engine's Begin does).
func TestJacobianLogMatchesFullScan(t *testing.T) {
	const nx, ny = 5, 3
	s := NewSystem()
	s.AddBlock(&shapeBlock{nx, ny})
	s.MustBuild()
	st := Stamp{sys: s, blk: 0}
	rows := [4]int{nx, nx, ny, ny}
	cols := [4]int{nx, ny, nx, ny}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}
	rng := rand.New(rand.NewSource(3))

	// The first interval writes every entry: a drift that left any entry
	// flagged as logged would then miss its later changes.
	for q := range rows {
		for i := 0; i < rows[q]; i++ {
			for j := 0; j < cols[q]; j++ {
				stampAt(st, q, i, j, rng.NormFloat64())
			}
		}
	}
	prev := snapshot(s)
	s.jac.drift()

	for round := 0; round < 400; round++ {
		if round%50 == 49 {
			// JacNonlinear's stamps skip the log; the discarded drift
			// of the next Begin's refresh(true) resynchronises it.
			ex := Stamp{sys: s, blk: 0, exact: true}
			for k := 0; k < 10; k++ {
				q := rng.Intn(4)
				stampAt(ex, q, rng.Intn(rows[q]), rng.Intn(cols[q]), rng.NormFloat64())
			}
			if len(s.jac.log) != 0 {
				t.Fatalf("round %d: JacNonlinear stamps logged %d entries", round, len(s.jac.log))
			}
			s.jac.drift()
			prev = snapshot(s)
			continue
		}
		for k := rng.Intn(24); k > 0; k-- {
			q := rng.Intn(4)
			i, j := rng.Intn(rows[q]), rng.Intn(cols[q])
			var v float64
			switch r := rng.Intn(10); {
			case r < 4:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			case r < 6:
				v = specials[rng.Intn(len(specials))]
			case r < 8:
				v = prev[q].At(i, j) // back to the refresh-time value
			default:
				// Repeated writes to one entry within the interval.
				for n := rng.Intn(4); n > 0; n-- {
					stampAt(st, q, i, j, rng.NormFloat64())
				}
				v = rng.NormFloat64()
			}
			stampAt(st, q, i, j, v)
		}
		if round == 1 {
			// Change every entry once more: with flags left set by the
			// drifts before, the log would miss them.
			for q := range rows {
				for i := 0; i < rows[q]; i++ {
					for j := 0; j < cols[q]; j++ {
						stampAt(st, q, i, j, s.jac.m[q].At(i, j)+1)
					}
				}
			}
		}
		if len(s.jac.log) > len(s.jac.data) {
			t.Fatalf("round %d: log holds %d records for %d entries", round, len(s.jac.log), len(s.jac.data))
		}
		want := refJacChange(jacBlocks(s), prev)
		got := s.jac.drift()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: logged drift %v (%x), full scan %v (%x)",
				round, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		prev = snapshot(s)
	}
}

// TestJacobianLogResetOnRecycle pins the pooled path: a system built on a
// recycled workspace starts with zeroed entries and an empty log,
// whatever the previous system left behind.
func TestJacobianLogResetOnRecycle(t *testing.T) {
	pool := NewWorkspacePool()
	build := func() *System {
		s := NewSystem()
		s.AddBlock(&shapeBlock{3, 2})
		s.UsePool(pool)
		s.MustBuild()
		return s
	}
	first := build()
	st := Stamp{sys: first, blk: 0}
	st.A(0, 1, 2)
	st.D(1, 1, -3)
	first.jac.drift()
	st.C(1, 2, 5)
	if len(first.jac.log) != 1 {
		t.Fatalf("log holds %d records, want 1", len(first.jac.log))
	}
	ws := first.Workspace()
	first.Release()

	second := build()
	if second.Workspace() != ws {
		t.Fatal("pool did not recycle the workspace")
	}
	j := second.jac
	if len(j.log) != 0 {
		t.Fatalf("recycled log holds %d records, want 0", len(j.log))
	}
	for i, v := range j.data {
		if math.Float64bits(v) != 0 || j.inLog[i] != 0 {
			t.Fatalf("recycled entry %d: value %v, logged %v; want +0, 0", i, v, j.inLog[i])
		}
	}
}

// TestJacobianProductsMatchDense: the products over the stamp pattern
// (jacobian.mul) equal la.Matrix.MulVec and MulVecAdd(dst, 1, x)
// in math.Float64bits on seeded random sparse Jacobians whose
// coefficients include ±0, NaN and ±Inf, written in random column order,
// some by unlogged exact stamps that only the rescan finds. Vectors
// include ±0 and spread magnitudes, so a reordered sum would round
// differently, and non-finite entries, which must take the dense
// fallback: there a zero coefficient against ±Inf or NaN makes the whole
// dense row NaN, which the pattern skips.
func TestJacobianProductsMatchDense(t *testing.T) {
	const nx, ny = 7, 4
	s := NewSystem()
	s.AddBlock(&shapeBlock{nx, ny})
	s.MustBuild()
	st := Stamp{sys: s, blk: 0}
	ex := Stamp{sys: s, blk: 0, exact: true}
	rows := [4]int{nx, nx, ny, ny}
	cols := [4]int{nx, ny, nx, ny}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(5))
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	vector := func(n int, finite bool) []float64 {
		v := make([]float64, n)
		for i := range v {
			switch r := rng.Intn(10); {
			case r == 0:
				v[i] = math.Copysign(0, -1)
			case r == 1:
				v[i] = 0
			default:
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
			}
		}
		if !finite {
			v[rng.Intn(n)] = specials[2+rng.Intn(3)]
		}
		return v
	}
	same := func(what string, round int, got, want []float64) {
		t.Helper()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d, %s row %d: pattern %v (%x), dense %v (%x)", round, what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for round := 0; round < 300; round++ {
		if round%60 == 0 {
			// A new run on a Jacobian that exact stamps left behind.
			s.jac.reset()
			for k := 3 + rng.Intn(20); k > 0; k-- {
				q := rng.Intn(4)
				stampAt(ex, q, rng.Intn(rows[q]), rng.Intn(cols[q]), value())
			}
			s.jac.rescan()
		}
		// Logged stamps in random order, so each row's columns arrive
		// out of order.
		for k := rng.Intn(6); k > 0; k-- {
			q := rng.Intn(4)
			stampAt(st, q, rng.Intn(rows[q]), rng.Intn(cols[q]), value())
		}
		s.jac.drift()
		for q := range rows {
			m := s.jac.m[q]
			x := vector(cols[q], rng.Intn(4) != 0)
			want := make([]float64, rows[q])
			m.MulVec(want, x)
			got := make([]float64, rows[q])
			s.jac.mul(q, got, x, false)
			same("mul", round, got, want)

			acc := vector(rows[q], true)
			want = append([]float64(nil), acc...)
			m.MulVecAdd(want, 1, x)
			s.jac.mul(q, acc, x, true)
			same("mul with add", round, acc, want)
		}
	}
}

// TestJacobianPatternCoversNonzeros: after drifts and rescans every
// nonzero or NaN entry is in its row's pattern, and each row lists its
// columns once, ascending.
func TestJacobianPatternCoversNonzeros(t *testing.T) {
	const nx, ny = 5, 3
	s := NewSystem()
	s.AddBlock(&shapeBlock{nx, ny})
	s.MustBuild()
	st := Stamp{sys: s, blk: 0}
	rows := [4]int{nx, nx, ny, ny}
	cols := [4]int{nx, ny, nx, ny}
	rng := rand.New(rand.NewSource(9))
	j := s.jac
	for round := 0; round < 200; round++ {
		for k := rng.Intn(5); k > 0; k-- {
			q := rng.Intn(4)
			stampAt(st, q, rng.Intn(rows[q]), rng.Intn(cols[q]), float64(rng.Intn(3)-1))
		}
		if round%50 == 0 {
			j.rescan()
		}
		j.drift()
		for q := range rows {
			for r := 0; r < rows[q]; r++ {
				off := j.base[q] + r*j.cols[q]
				list := j.pat[off : off+int(j.patN[j.row0[q]+r])]
				for k := 1; k < len(list); k++ {
					if list[k-1] >= list[k] {
						t.Fatalf("round %d: quadrant %d row %d pattern %v not strictly ascending", round, q, r, list)
					}
				}
				for c := 0; c < cols[q]; c++ {
					if v := j.data[off+c]; v != 0 && !slices.Contains(list, uint16(c)) {
						t.Fatalf("round %d: quadrant %d entry (%d, %d) = %v missing from pattern %v", round, q, r, c, v, list)
					}
				}
			}
		}
	}
}

// TestBeginRescansExactStamps: an engine that begins on a Jacobian an
// implicit engine's exact stamps wrote (System.JacNonlinear skips the
// log), with no Reset between, still multiplies over every nonzero
// entry: Begin's first refresh rescans the Jacobian into the stamp
// pattern, so the products equal the dense ones there too.
func TestBeginRescansExactStamps(t *testing.T) {
	const nx, ny = 4, 2
	s := NewSystem()
	s.AddBlock(&shapeBlock{nx, ny})
	s.MustBuild()
	ex := Stamp{sys: s, blk: 0, exact: true}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < nx; i++ {
		ex.A(i, i, -float64(i+2))
		ex.A(i, (i+1)%nx, rng.NormFloat64())
		ex.B(i, i%ny, rng.NormFloat64())
	}
	for k := 0; k < ny; k++ {
		ex.C(k, rng.Intn(nx), rng.NormFloat64())
		ex.D(k, k, 1)
	}
	e := NewEngine(s)
	if err := e.Begin(0, 1); err != nil {
		t.Fatal(err)
	}
	defer e.Reset()
	for q, m := range s.jac.m {
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, m.Rows)
		m.MulVec(want, x)
		got := make([]float64, m.Rows)
		s.jac.mul(q, got, x, false)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("quadrant %d row %d after Begin: pattern %v, dense %v", q, i, got[i], want[i])
			}
		}
	}
}

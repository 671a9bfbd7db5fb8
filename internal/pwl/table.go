// Package pwl implements the piecewise-linear tabular device models of the
// paper (Section III-B). A nonlinear branch equation i = f(v) is sampled
// once, offline, into segments; during simulation each lookup returns the
// local companion pair (G, J) such that i ≈ G·v + J on the segment
// containing v. Because the explicit integration algorithm marches forward
// in time, the Jacobian values can be retrieved from the table in O(1)
// without evaluating the underlying physical equations. The lookup's cost
// does not depend on the granularity, but the engine refreshes its
// linearisation on every segment change, so a segment is only worth
// having where the model needs it (BuildMerged).
package pwl

import (
	"fmt"
	"math"
)

// Table is a piecewise-linear model of a scalar function over a uniform
// grid of cells. Uniform spacing makes the cell lookup a single multiply
// (O(1)). Each cell belongs to one segment, a linear piece i = G·v + J:
// Build gives every cell a segment of its own, BuildMerged lets runs of
// adjacent cells share one chord. Segment ids start at 0 and never
// decrease with v.
type Table struct {
	vmin, vmax float64
	inv        float64 // 1/dv
	cells      []cell
	nseg       int // number of segments: the last cell's id + 1
	// Slopes used outside the sampled window; linear extrapolation keeps
	// the simulated system passive rather than clamping current flat.
	loG, loJ float64
	hiG, hiJ float64
}

// cell is one grid cell [v0, v1) with the companion pair of the segment
// holding it, so one index computation yields G, J and the segment id.
type cell struct {
	v0, v1 float64
	g, j   float64
	seg    int
}

// chord is the line through (v0, y0) and (v1, y1) as i = g·v + j: every
// segment of a table, a cell's own or a merged run's, is computed by it.
func chord(v0, y0, v1, y1 float64) (g, j float64) {
	g = (y1 - y0) / (v1 - v0)
	return g, y0 - g*v0
}

// Build samples f on [vmin, vmax] with n segments (n >= 1) and returns the
// table. f must be finite on the interval.
func Build(f func(v float64) float64, vmin, vmax float64, n int) (*Table, error) {
	t, _, err := build(f, vmin, vmax, n)
	return t, err
}

// build is Build that also returns f at the n+1 grid nodes.
func build(f func(v float64) float64, vmin, vmax float64, n int) (*Table, []float64, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("pwl: need at least 1 segment, got %d", n)
	}
	if !(vmax > vmin) {
		return nil, nil, fmt.Errorf("pwl: invalid interval [%g, %g]", vmin, vmax)
	}
	dv := (vmax - vmin) / float64(n)
	t := &Table{vmin: vmin, vmax: vmax, inv: 1 / dv, cells: make([]cell, n), nseg: n}
	y := make([]float64, n+1)
	y[0] = f(vmin)
	if math.IsNaN(y[0]) || math.IsInf(y[0], 0) {
		return nil, nil, fmt.Errorf("pwl: f(%g) is not finite", vmin)
	}
	v0 := vmin
	for k := 0; k < n; k++ {
		v1 := vmin + float64(k+1)*dv
		if k == n-1 {
			v1 = vmax // avoid accumulation error at the top edge
		}
		y[k+1] = f(v1)
		if math.IsNaN(y[k+1]) || math.IsInf(y[k+1], 0) {
			return nil, nil, fmt.Errorf("pwl: f(%g) is not finite", v1)
		}
		g, j := chord(v0, y[k], v1, y[k+1])
		t.cells[k] = cell{v0: v0, v1: v1, g: g, j: j, seg: k}
		v0 = v1
	}
	t.setEdges()
	return t, y, nil
}

// BuildMerged is Build followed by a merge: a run of adjacent cells
// becomes one segment, the chord between its end nodes, wherever that
// chord stays within tol of f at every grid node the run spans. The
// merge walks up from vmin and grows each run while the chord fits, so
// a flat span collapses into one segment while cells where f bends keep
// Build's breakpoints and G/J bits.
//
// The accuracy contract: at every v, the merged table's error against f
// exceeds Build's by at most tol. Inside a cell, the merged chord minus
// the cell's own chord is linear in v, so its size peaks at the cell's
// nodes, where the cell's chord equals f; the triangle inequality does
// the rest.
func BuildMerged(f func(v float64) float64, vmin, vmax float64, n int, tol float64) (*Table, error) {
	t, y, err := build(f, vmin, vmax, n)
	if err != nil {
		return nil, err
	}
	id := 0
	for a := 0; a < n; id++ {
		b := a + 1 // the run is cells [a, b)
		for b < n && t.chordFits(y, a, b+1, tol) {
			b++
		}
		// A run of one cell gets its own chord back, bit for bit.
		g, j := chord(t.cells[a].v0, y[a], t.cells[b-1].v1, y[b])
		for k := a; k < b; k++ {
			t.cells[k].g, t.cells[k].j, t.cells[k].seg = g, j, id
		}
		a = b
	}
	t.nseg = id
	t.setEdges()
	return t, nil
}

// chordFits reports whether the chord from node a to node b stays within
// tol of the node values y at every node between them.
func (t *Table) chordFits(y []float64, a, b int, tol float64) bool {
	g, j := chord(t.cells[a].v0, y[a], t.cells[b-1].v1, y[b])
	for k := a + 1; k < b; k++ {
		if !(math.Abs(g*t.cells[k].v0+j-y[k]) <= tol) {
			return false
		}
	}
	return true
}

// setEdges extrapolates outside the window with the edge segments.
func (t *Table) setEdges() {
	first, last := &t.cells[0], &t.cells[len(t.cells)-1]
	t.loG, t.loJ = first.g, first.j
	t.hiG, t.hiJ = last.g, last.j
}

// MustBuild is Build that panics on error; for package-level tables with
// constant arguments.
func MustBuild(f func(v float64) float64, vmin, vmax float64, n int) *Table {
	t, err := Build(f, vmin, vmax, n)
	if err != nil {
		panic(err)
	}
	return t
}

// NumSegments returns the number of linear pieces.
func (t *Table) NumSegments() int { return t.nseg }

// NumCells returns the grid size the table was built with.
func (t *Table) NumCells() int { return len(t.cells) }

// Domain returns the sampled interval.
func (t *Table) Domain() (vmin, vmax float64) { return t.vmin, t.vmax }

// Companion returns the companion pair (G, J) for operating point v, i.e.
// f(v) ≈ G·v + J locally, and the id of the segment it comes from, with
// values outside the domain mapped to -1 (below) or NumSegments()
// (above). The id is what the linearised state-space engine uses to
// decide whether the Jacobian entries changed between time points (LLE
// control).
func (t *Table) Companion(v float64) (g, j float64, seg int) {
	if math.IsNaN(v) || v < t.vmin {
		return t.loG, t.loJ, -1 // NaN: degenerate input, treated as off-table low
	}
	if v >= t.vmax {
		return t.hiG, t.hiJ, t.nseg
	}
	k := int((v - t.vmin) * t.inv)
	// Guard against floating-point edge effects at cell boundaries.
	if k >= len(t.cells) {
		k = len(t.cells) - 1
	}
	if k > 0 && v < t.cells[k].v0 {
		k--
	} else if v >= t.cells[k].v1 && k < len(t.cells)-1 {
		k++
	}
	c := &t.cells[k]
	return c.g, c.j, c.seg
}

// SegmentIndex returns the id of the segment containing v, as Companion
// does.
func (t *Table) SegmentIndex(v float64) int {
	_, _, seg := t.Companion(v)
	return seg
}

// Lookup returns the companion pair (G, J) for operating point v.
func (t *Table) Lookup(v float64) (g, j float64) {
	g, j, _ = t.Companion(v)
	return g, j
}

// Eval returns the PWL approximation of f at v.
func (t *Table) Eval(v float64) float64 {
	g, j := t.Lookup(v)
	return g*v + j
}

// MaxAbsError returns the maximum absolute deviation between the table and
// f measured on a grid of probes-per-cell points. Used in tests.
func (t *Table) MaxAbsError(f func(v float64) float64, probesPerCell int) float64 {
	if probesPerCell < 1 {
		probesPerCell = 1
	}
	var worst float64
	for _, c := range t.cells {
		for p := 0; p <= probesPerCell; p++ {
			v := c.v0 + (c.v1-c.v0)*float64(p)/float64(probesPerCell)
			if e := math.Abs(t.Eval(v) - f(v)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

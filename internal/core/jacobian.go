package core

import (
	"fmt"
	"math"

	"harvsim/internal/la"
)

// Jacobian quadrants, in the order they sit in jacobian.data.
const (
	qxx = iota
	qxy
	qyx
	qyy
)

// jacobian is the global Jacobian storage of paper Eq. 2 — Jxx, Jxy, Jyx
// and Jyy as row-major views of one backing slice, so a flat index
// addresses any entry — together with the change log the proposed
// engine's local-linearisation-error monitor (paper Eq. 3) reads.
//
// The log holds one record per entry a logged stamp wrote since the last
// drift: the entry's flat index and its value at that drift. A
// per-entry flag keeps it to one record per entry, so the log never
// outgrows the Jacobian, and a refresh costs the entries the stamps
// touched rather than a scan of every entry against a shadow copy.
//
// The varying set holds the entries whose bits a drift found changed
// since the last clearVarying. Every entry outside it still holds the
// bits it had then, so the varying entries' bits name the whole
// Jacobian: the key of the proposed engine's stability memo. vary lists
// them all, in the order they first changed.
//
// The stamp pattern lists, per row, the columns of every entry the
// stamps wrote since the last rescan, ascending, plus every entry that
// was nonzero or NaN at that rescan. Every entry outside it is ±0, so
// a product over the pattern equals the dense one on a finite vector
// (mul). On scenario 1 it holds 19 of Jxx's 100 entries and 10 of
// Jxy's and of Jyx's 40.
type jacobian struct {
	data []float64
	m    [4]*la.Matrix // views into data, by quadrant
	base [4]int        // flat index of each quadrant's first entry
	cols [4]int        // row stride of each quadrant
	row0 [4]int        // index in patN of each quadrant's first row

	log []jacEdit // capacity len(data): at most one record per entry

	// One allocation holds the per-entry flags (0 or 1) and the pattern,
	// in 16-bit words: a workspace is built per sweep point, so its
	// bytes add to every point's garbage. A column index fits, since a
	// quadrant 65,536 wide would need a 32 GB dense Jacobian.
	inLog  []uint16 // per entry: has a record in log
	varies []uint16 // per entry: is in the varying set
	inPat  []uint16 // per entry: is in the pattern
	pat    []uint16 // per row: its pattern's columns, at the row's offset in data
	patN   []uint16 // per row: its pattern's length

	vary []int // the varying set in order of first change; capacity len(data)
}

// jacEdit records a written entry and its value at the last drift.
type jacEdit struct {
	idx int
	old float64
}

func newJacobian(nx, ny int) *jacobian {
	rows := [4]int{nx, nx, ny, ny}
	if nx > math.MaxUint16 || ny > math.MaxUint16 {
		panic(fmt.Sprintf("core: %dx%d system exceeds the Jacobian's 16-bit column index", nx, ny))
	}
	n := nx*nx + 2*nx*ny + ny*ny
	meta := make([]uint16, 4*n+2*(nx+ny))
	j := &jacobian{
		data:   make([]float64, n),
		cols:   [4]int{nx, ny, nx, ny},
		log:    make([]jacEdit, 0, n),
		vary:   make([]int, 0, n),
		inLog:  meta[:n:n],
		varies: meta[n : 2*n : 2*n],
		inPat:  meta[2*n : 3*n : 3*n],
		pat:    meta[3*n : 4*n : 4*n],
		patN:   meta[4*n:],
	}
	off, row := 0, 0
	for q := range j.m {
		end := off + rows[q]*j.cols[q]
		j.m[q] = &la.Matrix{Rows: rows[q], Cols: j.cols[q], Data: j.data[off:end:end]}
		j.base[q] = off
		j.row0[q] = row
		off = end
		row += rows[q]
	}
	return j
}

// reset zeroes the entries and empties the log, the varying set and the
// pattern, returning a recycled store to the state newJacobian leaves.
func (j *jacobian) reset() {
	clear(j.data)
	clear(j.inLog)
	j.log = j.log[:0]
	j.clearVarying()
	j.clearPattern()
}

// clearVarying empties the varying set: from here on an entry varies
// once a drift finds its bits changed.
func (j *jacobian) clearVarying() {
	clear(j.varies)
	j.vary = j.vary[:0]
}

// set stores v at (r, c) of quadrant q. When logging, the first write to
// an entry since the last drift also records the value it replaces,
// changed or not: the drift skips an unchanged entry, and leaving the
// comparison out keeps set small enough for the Stamp methods to inline.
func (j *jacobian) set(q, r, c int, v float64, logging bool) {
	idx := j.base[q] + r*j.cols[q] + c
	if logging && j.inLog[idx] == 0 {
		j.inLog[idx] = 1
		j.log = append(j.log, jacEdit{idx, j.data[idx]})
	}
	j.data[idx] = v
}

// drift returns the largest relative change |cur−old|/(1+|old|) of any
// entry since the previous call and empties the log. An entry missing
// from the log has not been written since then, so it would add a zero
// difference, which the full scan it replaces skipped, as the loop below
// skips a logged entry written back to its old value; the maximum does
// not depend on the log's order, and a NaN difference compares false as
// it did there.
//
// drift also adds to the varying set every logged entry whose bits
// changed. It compares bits, not the difference: a zero that changed
// sign, or a NaN whose payload changed, leaves d at 0 or NaN but is a
// different Jacobian. And it adds every logged entry to the stamp
// pattern.
func (j *jacobian) drift() float64 {
	var worst float64
	for _, e := range j.log {
		j.inLog[e.idx] = 0
		if j.inPat[e.idx] == 0 {
			j.see(e.idx)
		}
		cur := j.data[e.idx]
		if j.varies[e.idx] == 0 && math.Float64bits(cur) != math.Float64bits(e.old) {
			j.varies[e.idx] = 1
			j.vary = append(j.vary, e.idx)
		}
		d := math.Abs(cur - e.old)
		if d == 0 {
			continue
		}
		if r := d / (1 + math.Abs(e.old)); r > worst {
			worst = r
		}
	}
	j.log = j.log[:0]
	return worst
}

// clearPattern empties the stamp pattern.
func (j *jacobian) clearPattern() {
	clear(j.inPat)
	clear(j.patN)
}

// rescan rebuilds the stamp pattern from the entries that are nonzero
// or NaN now, including those exact stamps (System.JacNonlinear) left
// behind without logging them; drift adds the logged ones.
func (j *jacobian) rescan() {
	j.clearPattern()
	for idx, v := range j.data {
		if v != 0 {
			j.see(idx)
		}
	}
}

// see adds entry idx, which the stamp pattern lacks, keeping its row's
// columns ascending.
func (j *jacobian) see(idx int) {
	j.inPat[idx] = 1
	q := qyy
	for idx < j.base[q] {
		q--
	}
	off := idx - j.base[q]
	r, c := off/j.cols[q], off%j.cols[q]
	n := &j.patN[j.row0[q]+r]
	cols := j.pat[j.base[q]+r*j.cols[q]:][:*n+1]
	k := *n
	for ; k > 0 && int(cols[k-1]) > c; k-- {
		cols[k] = cols[k-1]
	}
	cols[k] = uint16(c)
	*n++
}

// mul sets dst = M*x for quadrant q, or adds M*x to dst when add is
// set, bit for bit as la.Matrix.MulVec and MulVecAdd(dst, 1, x) do. It
// runs over the stamp pattern when that is exact for x (sparse), and
// densely otherwise. A dense row sum starts at +0 and so never reaches
// -0; a ±0 coefficient times a finite value adds ±0, which leaves it
// unchanged; and the remaining terms are summed in the same ascending
// column order.
func (j *jacobian) mul(q int, dst, x []float64, add bool) {
	if !j.sparse(x) {
		if add {
			j.m[q].MulVecAdd(dst, 1, x)
		} else {
			j.m[q].MulVec(dst, x)
		}
		return
	}
	stride, off, row0 := j.cols[q], j.base[q], j.row0[q]
	for i := range dst {
		row := j.data[off : off+stride]
		var s float64
		for _, c := range j.pat[off : off+int(j.patN[row0+i])] {
			s += row[c] * x[c]
		}
		if add {
			dst[i] += s
		} else {
			dst[i] = s
		}
		off += stride
	}
}

// sparse reports whether the products over the stamp pattern equal the
// dense ones for v: v is all finite (the dense product turns a row with
// a ±Inf or NaN operand against a zero coefficient into NaN, and the
// divergence check relies on that), and no stamp since the last drift
// can have made an entry outside the pattern nonzero (a block that
// changed an entry but reported no change).
func (j *jacobian) sparse(v []float64) bool {
	return len(j.log) == 0 && la.AllFinite(v)
}

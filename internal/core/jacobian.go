package core

import (
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
// them in the order they first changed, up to memoKeyCap, the most a
// key holds.
type jacobian struct {
	data []float64
	m    [4]*la.Matrix // views into data, by quadrant
	base [4]int        // flat index of each quadrant's first entry
	cols [4]int        // row stride of each quadrant

	log   []jacEdit // capacity len(data): at most one record per entry
	inLog []bool    // per entry: has a record in log

	nVary  int             // size of the varying set
	vary   [memoKeyCap]int // its first entries, in order of first change
	varies []bool          // per entry: is in the varying set
}

// jacEdit records a written entry and its value at the last drift.
type jacEdit struct {
	idx int
	old float64
}

func newJacobian(nx, ny int) *jacobian {
	rows := [4]int{nx, nx, ny, ny}
	n := nx*nx + 2*nx*ny + ny*ny
	flags := make([]bool, 2*n)
	j := &jacobian{
		data:   make([]float64, n),
		cols:   [4]int{nx, ny, nx, ny},
		log:    make([]jacEdit, 0, n),
		inLog:  flags[:n:n],
		varies: flags[n:],
	}
	off := 0
	for q := range j.m {
		end := off + rows[q]*j.cols[q]
		j.m[q] = &la.Matrix{Rows: rows[q], Cols: j.cols[q], Data: j.data[off:end:end]}
		j.base[q] = off
		off = end
	}
	return j
}

// reset zeroes the entries and empties the log and the varying set,
// returning a recycled store to the state newJacobian leaves.
func (j *jacobian) reset() {
	clear(j.data)
	clear(j.inLog)
	j.log = j.log[:0]
	j.clearVarying()
}

// clearVarying empties the varying set: from here on an entry varies
// once a drift finds its bits changed.
func (j *jacobian) clearVarying() {
	clear(j.varies)
	j.nVary = 0
}

// varying returns the varying set in order of first change, or false
// when it holds more than memoKeyCap entries.
func (j *jacobian) varying() ([]int, bool) {
	if j.nVary > memoKeyCap {
		return nil, false
	}
	return j.vary[:j.nVary], true
}

// set stores v at (r, c) of quadrant q. When logging, the first write to
// an entry since the last drift also records the value it replaces,
// changed or not: the drift skips an unchanged entry, and leaving the
// comparison out keeps set small enough for the Stamp methods to inline.
func (j *jacobian) set(q, r, c int, v float64, logging bool) {
	idx := j.base[q] + r*j.cols[q] + c
	if logging && !j.inLog[idx] {
		j.inLog[idx] = true
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
// different Jacobian.
func (j *jacobian) drift() float64 {
	var worst float64
	for _, e := range j.log {
		j.inLog[e.idx] = false
		cur := j.data[e.idx]
		if !j.varies[e.idx] && math.Float64bits(cur) != math.Float64bits(e.old) {
			j.varies[e.idx] = true
			if j.nVary < memoKeyCap {
				j.vary[j.nVary] = e.idx
			}
			j.nVary++
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

package pwl

import (
	"math"
	"sync"
)

// Diode is the piecewise-linear companion model of a junction diode used
// by the Dickson voltage multiplier block (paper Fig. 5(b)). The
// underlying physical model is the Shockley equation
//
//	Id = Is·(exp(Vd/(n·Vt)) − 1)
//
// moderated by a series resistance Rs that bounds the on-conductance (a
// physical effect of the contact/bulk resistance that also keeps the
// companion conductance — and with it the smallest time constant seen by
// the explicit integrator — bounded).
type Diode struct {
	Is  float64 // saturation current [A]
	NVt float64 // emission coefficient times thermal voltage [V]
	Rs  float64 // series resistance [Ohm]; > 0

	table *Table
}

// DefaultDiode returns the parameters used by the harvester's multiplier:
// a small-signal Schottky-like diode suited to µW-level rectification.
func DefaultDiode(cells int) *Diode {
	d := &Diode{Is: 25e-9, NVt: 38.7e-3, Rs: 25}
	d.BuildTable(cells)
	return d
}

// Current evaluates the exact (non-tabulated) diode current for terminal
// voltage vd, solving the implicit series-resistance equation
// Id = Is·(exp((Vd − Id·Rs)/NVt) − 1) by a few Newton steps. This is the
// model the Newton-Raphson baseline engines evaluate directly.
func (d *Diode) Current(vd float64) float64 {
	if d.Rs <= 0 {
		return d.Is * (math.Exp(vd/d.NVt) - 1)
	}
	// Newton on g(i) = Is*(exp((vd - i*Rs)/NVt) - 1) - i.
	// Start from the resistor-limited estimate for forward bias, the raw
	// exponential for reverse.
	var i float64
	if vd > 0 {
		i = vd / (d.Rs + d.NVt/d.Is)
	}
	for iter := 0; iter < 60; iter++ {
		e := math.Exp((vd - i*d.Rs) / d.NVt)
		g := d.Is*(e-1) - i
		dg := -d.Is*e*d.Rs/d.NVt - 1
		di := g / dg
		i -= di
		if math.Abs(di) <= 1e-15*(1+math.Abs(i)) {
			break
		}
	}
	return i
}

// Conductance evaluates the exact differential conductance dId/dVd at vd
// by implicit differentiation of the series-resistance equation.
func (d *Diode) Conductance(vd float64) float64 {
	i := d.Current(vd)
	gj := d.Is * math.Exp((vd-i*d.Rs)/d.NVt) / d.NVt // junction conductance
	if d.Rs <= 0 {
		return gj
	}
	return gj / (1 + gj*d.Rs)
}

// mergeTol is the diode table's merge tolerance in units of Is: a run of
// cells becomes one chord segment where that chord stays within
// mergeTol·Is of Current (BuildMerged). Deep reverse bias, where the
// current is flat at −Is, then keeps one segment, and one companion
// pair, across what would otherwise be ~900 cell crossings, each of
// which costs the proposed engine a refresh. For the multiplier's diode
// on the default 1024-cell grid, merging stops at −0.208 V: every cell
// above keeps the uniform grid, and the Table I charge, whose diodes
// never go below −0.192 V, keeps every bit. Twice this tolerance would
// merge the cell the charge reaches at −0.192 V.
const mergeTol = 5e-4

// tableKey is everything a diode's companion table depends on: the
// bit patterns of the parameters Current reads, and the cell count.
type tableKey struct {
	is, nvt, rs uint64
	cells       int
}

// tables holds one companion table per tableKey, shared by every diode
// whose parameters are bit-equal: a Table is never written after it is
// built, so sharing one cannot move a result bit. The store needs no
// bound because no request input reaches a diode's parameters or
// granularity: its keys come only from code (the multiplier's default
// 1024-cell table, tests and the granularity ablation's 16 to 16384
// cells).
var tables sync.Map // tableKey -> *Table

// BuildTable (re)builds the PWL companion table on a grid of the given
// number of cells over a voltage window wide enough for the multiplier
// stages, merging the cells of the flat reverse-bias span into chord
// segments (mergeTol). Diodes with bit-equal parameters share one
// table, built on first use.
func (d *Diode) BuildTable(cells int) {
	if cells < 2 {
		cells = 2
	}
	key := tableKey{math.Float64bits(d.Is), math.Float64bits(d.NVt), math.Float64bits(d.Rs), cells}
	if t, ok := tables.Load(key); ok {
		d.table = t.(*Table)
		return
	}
	// The window covers deep reverse bias (stage stacking) through strong
	// forward conduction. Outside the window the table extrapolates with
	// the edge slopes, which for the high edge is the Rs-limited ~1/Rs
	// slope — exactly the physical behaviour. Builders racing on one key
	// all end up holding the table that was stored first.
	t, err := BuildMerged(d.Current, -15.0, 1.5, cells, mergeTol*d.Is)
	if err != nil {
		panic(err)
	}
	stored, _ := tables.LoadOrStore(key, t)
	d.table = stored.(*Table)
}

// Table exposes the underlying companion table.
func (d *Diode) Table() *Table { return d.table }

// Companion returns the linearised pair (G, J) with Id ≈ G·Vd + J at the
// operating point vd, plus the table segment id used (for LLE /
// Jacobian-change detection).
func (d *Diode) Companion(vd float64) (g, j float64, segment int) {
	return d.table.Companion(vd)
}

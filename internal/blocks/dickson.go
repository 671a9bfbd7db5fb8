package blocks

import (
	"errors"
	"fmt"
	"math"

	"harvsim/internal/core"
	"harvsim/internal/pwl"
)

// DicksonParams configures the N-stage Dickson voltage multiplier of
// paper Fig. 5. CStage is the stage storage capacitance and COut the
// final smoothing stage that feeds the supercapacitor. The charge pump's
// output impedance is roughly sum_i 1/(f*C_i) (~2.7 kOhm at 70 Hz with
// the defaults), which is what the microgenerator's electrical side is
// matched against.
//
// The diode is a low-barrier Schottky (the standard choice in uW-level
// harvesting rectifiers for its low forward drop); its series resistance
// bounds the on-state companion conductance and hence the fastest RC
// mode the explicit integrator must respect.
type DicksonParams struct {
	Stages int
	CStage float64
	COut   float64
	Diode  *pwl.Diode
}

// MaxDicksonStages bounds the multiplier's stage count at the width of
// its restamp mask (diodeBit). The system Jacobian is dense, so a stage
// count taken from a request must not size it without bound.
const MaxDicksonStages = 64

// Validate reports whether p describes a buildable multiplier: a stage
// count within [1, MaxDicksonStages] and a diode model. It is THE
// definition of validity — NewDickson panics exactly when it errs, and
// the harvester's Config.Validate wraps it so a bad batch-sweep axis
// value fails its job rather than its worker.
func (p DicksonParams) Validate() error {
	if p.Stages < 1 || p.Stages > MaxDicksonStages {
		return fmt.Errorf("blocks: Dickson stage count %d outside [1, %d]", p.Stages, MaxDicksonStages)
	}
	if p.Diode == nil {
		return errors.New("blocks: Dickson needs a diode model")
	}
	return nil
}

// DefaultDickson returns the 5-stage multiplier used by the harvester
// with a diode table on a grid of the given number of cells.
func DefaultDickson(cells int) DicksonParams {
	d := &pwl.Diode{Is: 5e-6, NVt: 38.7e-3, Rs: 100}
	d.BuildTable(cells)
	return DicksonParams{
		Stages: 5,
		CStage: 22e-6,
		COut:   220e-6,
		Diode:  d,
	}
}

// Dickson is the voltage-multiplier block (paper Eq. 14): states
// [V1..VN] — the stage voltages, exactly the state set of the paper's
// linearised model — and terminals [Vm, Im, Vc, Ic]. Diode i sees
// Vd_i = s_i*Vm + V_{i-1} - V_i with alternating pump sign s_i
// (s_1 = +1) and V_0 = 0, which reproduces the paper's model where the
// source voltage couples into every stage row through companion pairs
// (G_i, J_i) retrieved from the PWL lookup table. Terminal relations:
// the input KCL 0 = Im - sum_i s_i*Id_i and the output 0 = Vc - VN.
type Dickson struct {
	P    DicksonParams
	name string

	g, j    []float64 // companion pairs per diode (1-based at index 0)
	segs    []int     // last PWL segment id per diode
	moved   uint64    // diodes whose G or J bits changed since the last stamp (diodeBit)
	dirty   bool
	initOut float64 // precharge voltage for the output ladder
}

// allDiodes is the stamp mask of a full restamp.
const allDiodes = ^uint64(0)

// diodeBit returns diode i's bit (1-based, at most MaxDicksonStages) in
// a stamp mask.
func diodeBit(i int) uint64 { return 1 << (i - 1) }

// NewDickson returns a multiplier block named name with terminals
// "Vm"/"Im" on the input and "Vc"/"Ic" on the output. It panics when
// p.Validate errs.
func NewDickson(name string, p DicksonParams) *Dickson {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Dickson{
		P:     p,
		name:  name,
		g:     make([]float64, p.Stages),
		j:     make([]float64, p.Stages),
		segs:  make([]int, p.Stages),
		dirty: true,
	}
}

// Name implements core.Block.
func (d *Dickson) Name() string { return d.name }

// NumStates implements core.Block.
func (d *Dickson) NumStates() int { return d.P.Stages }

// NumEquations implements core.Block.
func (d *Dickson) NumEquations() int { return 2 }

// Terminals implements core.Block.
func (d *Dickson) Terminals() []string { return []string{"Vm", "Im", "Vc", "Ic"} }

// PrechargeOutput sets the initial condition of the stage ladder to ramp
// linearly up to v at the output, matching a storage element that is
// already charged (avoids an unphysical inrush at t=0).
func (d *Dickson) PrechargeOutput(v float64) { d.initOut = v }

// InitState implements core.Block.
func (d *Dickson) InitState(x []float64) {
	n := d.P.Stages
	for i := 1; i <= n; i++ {
		x[i-1] = d.initOut * float64(i) / float64(n)
	}
}

// sign returns the pump sign s_i for diode i (1-based).
func (d *Dickson) sign(i int) float64 {
	if i%2 == 1 {
		return 1
	}
	return -1
}

// vd returns diode i's voltage (1-based) given local state x
// (x[k] = V_{k+1}) and source voltage vm.
func (d *Dickson) vd(i int, x []float64, vm float64) float64 {
	vPrev := 0.0
	if i > 1 {
		vPrev = x[i-2]
	}
	return d.sign(i)*vm + vPrev - x[i-1]
}

// stageCap returns the capacitance of stage i (1-based).
func (d *Dickson) stageCap(i int) float64 {
	if i == d.P.Stages {
		return d.P.COut
	}
	return d.P.CStage
}

// Linearise implements core.Block: refresh the diode companions from the
// PWL table and restamp when any segment changed. The restamp writes
// only what depends on the diodes whose companion bits moved since the
// last stamp; a dirty block restamps everything.
func (d *Dickson) Linearise(t float64, x, y []float64, st core.Stamp) bool {
	n := d.P.Stages
	vm := y[0]
	changed := d.dirty
	for i := 1; i <= n; i++ {
		g, j, seg := d.P.Diode.Companion(d.vd(i, x, vm))
		if seg != d.segs[i-1] || d.g[i-1] != g {
			changed = true
		}
		if math.Float64bits(g) != math.Float64bits(d.g[i-1]) || math.Float64bits(j) != math.Float64bits(d.j[i-1]) {
			d.moved |= diodeBit(i)
		}
		d.g[i-1], d.j[i-1], d.segs[i-1] = g, j, seg
	}
	if !changed {
		return false
	}
	mask := d.moved
	if d.dirty {
		mask = allDiodes
	}
	d.stamp(st, mask)
	d.moved = 0
	d.dirty = false
	return true
}

// stamp writes the linearised model's entries that depend on the
// diodes in mask (diodeBit), in the order a full stamp writes them; the
// constant entries only with allDiodes. Stage row i depends on diodes i
// and i+1, the input KCL's sums on every diode. State index k holds
// V_{k+1}; terminal order is Vm=0, Im=1, Vc=2, Ic=3.
func (d *Dickson) stamp(st core.Stamp, mask uint64) {
	n := d.P.Stages
	gi := func(i int) float64 {
		if i >= 1 && i <= n {
			return d.g[i-1]
		}
		return 0
	}
	ji := func(i int) float64 {
		if i >= 1 && i <= n {
			return d.j[i-1]
		}
		return 0
	}
	si := d.sign
	full := mask == allDiodes
	// either reports whether diode i or i+1 is in the mask.
	either := func(i int) bool { return mask&(diodeBit(i)|diodeBit(i+1)) != 0 }

	// Stage rows i = 1..n-1: C_i*dV_i/dt = Id_i - Id_{i+1} with
	// Id_i = G_i*(s_i*Vm + V_{i-1} - V_i) + J_i.
	for i := 1; i < n; i++ {
		if !either(i) {
			continue
		}
		c := d.stageCap(i)
		r := i - 1
		st.B(r, 0, (si(i)*gi(i)-si(i+1)*gi(i+1))/c)
		if i >= 2 {
			st.A(r, i-2, gi(i)/c)
		}
		st.A(r, i-1, -(gi(i)+gi(i+1))/c)
		st.A(r, i, gi(i+1)/c)
		st.E(r, (ji(i)-ji(i+1))/c)
	}
	// Output stage: C_N*dV_N/dt = Id_N - Ic.
	c := d.stageCap(n)
	r := n - 1
	if mask&diodeBit(n) != 0 { // set in a full mask too
		st.B(r, 0, si(n)*gi(n)/c)
		if n >= 2 {
			st.A(r, n-2, gi(n)/c)
		}
		st.A(r, n-1, -gi(n)/c)
		if full {
			st.B(r, 3, -1/c) // Ic
		}
		st.E(r, ji(n)/c)
	}

	// Input KCL: 0 = Im - sum_i s_i*Id_i
	//          = Im - (sum G_i)*Vm - sum_i s_i*G_i*(V_{i-1}-V_i) - sum s_i*J_i.
	if mask == 0 {
		return
	}
	var sumG, sumSJ float64
	for i := 1; i <= n; i++ {
		sumG += gi(i)
		sumSJ += si(i) * ji(i)
	}
	st.D(0, 0, -sumG)
	if full {
		st.D(0, 1, 1)
	}
	for k := 1; k <= n; k++ {
		// V_k appears as -V_k in diode k and as V_{(k+1)-1} in diode k+1.
		if either(k) {
			st.C(0, k-1, si(k)*gi(k)-si(k+1)*gi(k+1))
		}
	}
	st.G(0, -sumSJ)

	// Output relation: 0 = Vc - VN.
	if full {
		st.C(1, n-1, -1)
		st.D(1, 2, 1)
	}
}

// EvalNonlinear implements core.Block with exact Shockley(+Rs) diode
// currents — the model the Newton-Raphson baselines iterate on.
func (d *Dickson) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	n := d.P.Stages
	vm, im, vc, ic := y[0], y[1], y[2], y[3]
	var pumpSum float64
	idPrev := 0.0
	for i := 1; i <= n; i++ {
		id := d.P.Diode.Current(d.vd(i, x, vm))
		pumpSum += d.sign(i) * id
		if i >= 2 {
			fx[i-2] = (idPrev - id) / d.stageCap(i-1)
		}
		idPrev = id
	}
	fx[n-1] = (idPrev - ic) / d.stageCap(n)
	fy[0] = im - pumpSum
	fy[1] = vc - x[n-1]
}

// JacNonlinear implements core.Block using exact diode conductances.
func (d *Dickson) JacNonlinear(t float64, x, y []float64, st core.Stamp) {
	n := d.P.Stages
	vm := y[0]
	for i := 1; i <= n; i++ {
		v := d.vd(i, x, vm)
		g := d.P.Diode.Conductance(v)
		id := d.P.Diode.Current(v)
		d.g[i-1] = g
		d.j[i-1] = id - g*v
	}
	d.stamp(st, allDiodes)
	d.moved = 0
	d.dirty = true // PWL stamps must be restored before explicit runs
}

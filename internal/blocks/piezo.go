package blocks

import (
	"math"

	"harvsim/internal/core"
)

// PiezoParams describes a piezoelectric cantilever microgenerator. The
// paper's conclusion notes the linearised state-space approach is
// generic across transduction mechanisms: "all that is required are the
// model equations of each component block". This block provides those
// equations for the piezoelectric case:
//
//	m*zdd + c*zd + k*z + Theta*Vp = Fa
//	Cpz*Vpd = Theta*zd - Im,   Vm = Vp
type PiezoParams struct {
	M     float64 // proof mass [kg]
	Ks    float64 // stiffness [N/m]
	Cm    float64 // mechanical damping [N.s/m]
	Theta float64 // electromechanical coupling [N/V = C/m]
	Cpz   float64 // electrode capacitance [F]
}

// DefaultPiezo returns a mid-scale piezoelectric cantilever resonant at
// 64 Hz with coupling typical of PZT bimorphs.
func DefaultPiezo() PiezoParams {
	const fr = 64.0
	m := 5.0e-3
	return PiezoParams{
		M:     m,
		Ks:    m * (2 * math.Pi * fr) * (2 * math.Pi * fr),
		Cm:    7.2e-3,
		Theta: 1.0e-3,
		Cpz:   60e-9,
	}
}

// UntunedHz returns the short-circuit resonant frequency.
func (p PiezoParams) UntunedHz() float64 {
	return math.Sqrt(p.Ks/p.M) / (2 * math.Pi)
}

// Piezo is the piezoelectric microgenerator block: states [z, zd, Vp],
// terminals [Vm, Im], terminal relation 0 = Vm - Vp.
type Piezo struct {
	P   PiezoParams
	Vib *Vibration

	name    string
	stamped bool
}

// NewPiezo returns a piezo block named name driven by vib with terminals
// "Vm"/"Im".
func NewPiezo(name string, p PiezoParams, vib *Vibration) *Piezo {
	return &Piezo{P: p, Vib: vib, name: name}
}

// Name implements core.Block.
func (g *Piezo) Name() string { return g.name }

// NumStates implements core.Block.
func (g *Piezo) NumStates() int { return 3 }

// NumEquations implements core.Block.
func (g *Piezo) NumEquations() int { return 1 }

// Terminals implements core.Block.
func (g *Piezo) Terminals() []string { return []string{"Vm", "Im"} }

// InitState implements core.Block.
func (g *Piezo) InitState(x []float64) {
	x[0], x[1], x[2] = 0, 0, 0
}

// Linearise implements core.Block (the block is linear).
func (g *Piezo) Linearise(t float64, x, y []float64, st core.Stamp) bool {
	p := g.P
	fa := -p.M * g.Vib.Accel(t)
	st.E(1, fa/p.M)
	if g.stamped {
		return false
	}
	st.A(0, 1, 1)
	st.A(1, 0, -p.Ks/p.M)
	st.A(1, 1, -p.Cm/p.M)
	st.A(1, 2, -p.Theta/p.M)
	st.A(2, 1, p.Theta/p.Cpz)
	st.B(2, 1, -1/p.Cpz) // Im
	st.C(0, 2, -1)
	st.D(0, 0, 1)
	g.stamped = true
	return true
}

// LinearisesFromState implements core.StateLineariser: Linearise reads
// t only (through the memoised Vibration.Accel).
func (g *Piezo) LinearisesFromState() bool { return true }

// EvalNonlinear implements core.Block.
func (g *Piezo) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	p := g.P
	fa := -p.M * g.Vib.Accel(t)
	z, zd, vp := x[0], x[1], x[2]
	fx[0] = zd
	fx[1] = (-p.Ks*z - p.Cm*zd - p.Theta*vp + fa) / p.M
	fx[2] = (p.Theta*zd - y[1]) / p.Cpz
	fy[0] = y[0] - vp
}

// JacNonlinear implements core.Block.
func (g *Piezo) JacNonlinear(t float64, x, y []float64, st core.Stamp) {
	p := g.P
	st.A(0, 1, 1)
	st.A(1, 0, -p.Ks/p.M)
	st.A(1, 1, -p.Cm/p.M)
	st.A(1, 2, -p.Theta/p.M)
	st.A(2, 1, p.Theta/p.Cpz)
	st.B(2, 1, -1/p.Cpz)
	st.C(0, 2, -1)
	st.D(0, 0, 1)
	g.stamped = false
}

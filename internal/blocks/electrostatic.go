package blocks

import (
	"math"

	"harvsim/internal/core"
)

// ElectrostaticParams describes a gap-closing electrostatic
// microgenerator operated with a priming bias (the transduction
// mechanism of Hohlfeld et al., cited by the paper as the electrostatic
// tuning example). The variable capacitor is Cv(z) = C0*g0/(g0+z); with
// charge q on it the stored energy is q^2*(g0+z)/(2*C0*g0), giving an
// attraction force independent of gap in this parallel-plate model.
type ElectrostaticParams struct {
	M     float64 // proof mass [kg]
	Ks    float64 // stiffness [N/m]
	Cm    float64 // damping [N.s/m]
	C0    float64 // capacitance at z=0 [F]
	G0    float64 // nominal gap [m]
	QBias float64 // priming charge [C]
}

// DefaultElectrostatic returns a millimetre-gap variable capacitor
// resonant at 64 Hz primed to ~10 V.
func DefaultElectrostatic() ElectrostaticParams {
	const fr = 64.0
	m := 2.0e-3
	c0 := 200e-12
	return ElectrostaticParams{
		M:     m,
		Ks:    m * (2 * math.Pi * fr) * (2 * math.Pi * fr),
		Cm:    4e-3,
		C0:    c0,
		G0:    0.5e-3,
		QBias: c0 * 10,
	}
}

// Electrostatic is the variable-capacitance microgenerator block:
// states [z, zd, q], terminals [Vm, Im], terminal relation
// 0 = Vm - q*(g0+z)/(C0*g0). The voltage relation is bilinear in (z, q),
// so the block is genuinely nonlinear and exercises the per-step
// linearisation path.
type Electrostatic struct {
	P   ElectrostaticParams
	Vib *Vibration

	name       string
	lastZ      float64
	lastQ      float64
	stamped    bool
	quantScale float64
}

// NewElectrostatic returns an electrostatic block named name driven by
// vib with terminals "Vm"/"Im".
func NewElectrostatic(name string, p ElectrostaticParams, vib *Vibration) *Electrostatic {
	return &Electrostatic{P: p, Vib: vib, name: name, quantScale: 2e-4}
}

// Name implements core.Block.
func (g *Electrostatic) Name() string { return g.name }

// NumStates implements core.Block.
func (g *Electrostatic) NumStates() int { return 3 }

// NumEquations implements core.Block.
func (g *Electrostatic) NumEquations() int { return 1 }

// Terminals implements core.Block.
func (g *Electrostatic) Terminals() []string { return []string{"Vm", "Im"} }

// InitState implements core.Block: at rest with the priming charge.
func (g *Electrostatic) InitState(x []float64) {
	x[0], x[1], x[2] = 0, 0, g.P.QBias
}

// voltage returns the terminal voltage for gap offset z and charge q.
func (g *Electrostatic) voltage(z, q float64) float64 {
	p := g.P
	return q * (p.G0 + z) / (p.C0 * p.G0)
}

// Linearise implements core.Block: tangent model about (z, q),
// refreshed when the operating point moves appreciably.
func (g *Electrostatic) Linearise(t float64, x, y []float64, st core.Stamp) bool {
	p := g.P
	fa := -p.M * g.Vib.Accel(t)
	z, q := x[0], x[2]
	// Electrostatic force f_es = -q^2/(2*C0*g0); tangent in q.
	dfdq := -q / (p.C0 * p.G0)
	fes0 := -q * q / (2 * p.C0 * p.G0)
	st.E(1, (fa+fes0-dfdq*q)/p.M)
	changed := !g.stamped ||
		math.Abs(z-g.lastZ) > g.quantScale*p.G0 ||
		math.Abs(q-g.lastQ) > g.quantScale*math.Max(math.Abs(g.lastQ), p.QBias)
	if !changed {
		return false
	}
	st.A(0, 1, 1)
	st.A(1, 0, -p.Ks/p.M)
	st.A(1, 1, -p.Cm/p.M)
	st.A(1, 2, dfdq/p.M)
	// dq/dt = Im.
	st.B(2, 1, 1)
	// 0 = Vm - V(z, q), tangent: V ~ V0 + Vz*(z-z0) + Vq*(q-q0).
	vz := q / (p.C0 * p.G0)
	vq := (p.G0 + z) / (p.C0 * p.G0)
	v0 := g.voltage(z, q)
	st.C(0, 0, -vz)
	st.C(0, 2, -vq)
	st.D(0, 0, 1)
	st.G(0, -(v0 - vz*z - vq*q))
	g.lastZ, g.lastQ = z, q
	g.stamped = true
	return true
}

// LinearisesFromState implements core.StateLineariser: Linearise reads
// t (through the memoised Vibration.Accel), the gap and the charge.
func (g *Electrostatic) LinearisesFromState() bool { return true }

// EvalNonlinear implements core.Block.
func (g *Electrostatic) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	p := g.P
	fa := -p.M * g.Vib.Accel(t)
	z, zd, q := x[0], x[1], x[2]
	fx[0] = zd
	fx[1] = (-p.Ks*z - p.Cm*zd - q*q/(2*p.C0*p.G0) + fa) / p.M
	fx[2] = y[1]
	fy[0] = y[0] - g.voltage(z, q)
}

// JacNonlinear implements core.Block.
func (g *Electrostatic) JacNonlinear(t float64, x, y []float64, st core.Stamp) {
	p := g.P
	z, q := x[0], x[2]
	st.A(0, 1, 1)
	st.A(1, 0, -p.Ks/p.M)
	st.A(1, 1, -p.Cm/p.M)
	st.A(1, 2, -q/(p.C0*p.G0)/p.M)
	st.B(2, 1, 1)
	st.C(0, 0, -q/(p.C0*p.G0))
	st.C(0, 2, -(p.G0+z)/(p.C0*p.G0))
	st.D(0, 0, 1)
	g.stamped = false
}

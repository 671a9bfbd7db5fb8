package blocks

import (
	"harvsim/internal/core"
)

// ACSource is an ideal (optionally resistive) voltage source block used
// in unit tests and component-level examples: terminal relation
// 0 = V - (v(t) - Rs*I) on configurable terminal names.
type ACSource struct {
	name     string
	termV    string
	termI    string
	V        func(t float64) float64
	Rs       float64
	stamped  bool
	needFlag bool
}

// NewACSource returns a source block driving terminal pair (termV,
// termI) with open-circuit voltage v(t) and output resistance rs.
func NewACSource(name, termV, termI string, v func(t float64) float64, rs float64) *ACSource {
	return &ACSource{name: name, termV: termV, termI: termI, V: v, Rs: rs}
}

// Name implements core.Block.
func (s *ACSource) Name() string { return s.name }

// NumStates implements core.Block.
func (s *ACSource) NumStates() int { return 0 }

// NumEquations implements core.Block.
func (s *ACSource) NumEquations() int { return 1 }

// Terminals implements core.Block.
func (s *ACSource) Terminals() []string { return []string{s.termV, s.termI} }

// InitState implements core.Block.
func (s *ACSource) InitState([]float64) {}

// Linearise implements core.Block.
func (s *ACSource) Linearise(t float64, x, y []float64, st core.Stamp) bool {
	st.G(0, -s.V(t))
	if s.stamped {
		return false
	}
	st.D(0, 0, 1)
	st.D(0, 1, s.Rs)
	s.stamped = true
	return true
}

// EvalNonlinear implements core.Block.
func (s *ACSource) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	fy[0] = y[0] + s.Rs*y[1] - s.V(t)
}

// JacNonlinear implements core.Block.
func (s *ACSource) JacNonlinear(t float64, x, y []float64, st core.Stamp) {
	st.D(0, 0, 1)
	st.D(0, 1, s.Rs)
	s.stamped = false
}

// Resistor is a passive load block: terminal relation 0 = I - V/R with
// I flowing into the resistor. Used to close component-level systems in
// tests (e.g. a microgenerator driving a matched resistive load).
type Resistor struct {
	name    string
	termV   string
	termI   string
	r       float64
	dirty   bool
	stamped bool
}

// NewResistor returns a resistor block on terminal pair (termV, termI).
func NewResistor(name, termV, termI string, r float64) *Resistor {
	return &Resistor{name: name, termV: termV, termI: termI, r: r, dirty: true}
}

// Name implements core.Block.
func (r *Resistor) Name() string { return r.name }

// NumStates implements core.Block.
func (r *Resistor) NumStates() int { return 0 }

// NumEquations implements core.Block.
func (r *Resistor) NumEquations() int { return 1 }

// Terminals implements core.Block.
func (r *Resistor) Terminals() []string { return []string{r.termV, r.termI} }

// InitState implements core.Block.
func (r *Resistor) InitState([]float64) {}

// SetResistance changes R; callers must Invalidate the owning system.
func (r *Resistor) SetResistance(ohms float64) {
	if ohms != r.r {
		r.r = ohms
		r.dirty = true
	}
}

// Resistance returns R.
func (r *Resistor) Resistance() float64 { return r.r }

// Linearise implements core.Block.
func (r *Resistor) Linearise(t float64, x, y []float64, st core.Stamp) bool {
	if r.stamped && !r.dirty {
		return false
	}
	st.D(0, 0, -1/r.r)
	st.D(0, 1, 1)
	r.stamped = true
	r.dirty = false
	return true
}

// LinearisesFromState implements core.StateLineariser: Linearise reads
// nothing but the resistance.
func (r *Resistor) LinearisesFromState() bool { return true }

// EvalNonlinear implements core.Block.
func (r *Resistor) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	fy[0] = y[1] - y[0]/r.r
}

// JacNonlinear implements core.Block.
func (r *Resistor) JacNonlinear(t float64, x, y []float64, st core.Stamp) {
	st.D(0, 0, -1/r.r)
	st.D(0, 1, 1)
	r.stamped = false
}

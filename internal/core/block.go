// Package core implements the paper's primary contribution: the
// linearised state-space formulation and its explicit march-in-time
// solution for complete mixed-technology energy harvesting systems.
//
// The analogue part of the system is modelled as (paper Eq. 1)
//
//	[ xdot(t) ]   [ fx(x(t), y(t)) ]   [ ex(t) ]
//	[   0     ] = [ fy(x(t), y(t)) ] + [   0   ]
//
// where x are N state variables (displacement, velocity, flux, capacitor
// voltages, inductor currents) and y are M non-state variables — the
// terminal voltages and currents that connect individual component
// blocks (paper Fig. 3). At each time point the model is linearised
// (Eq. 2) into the Jacobian blocks Jxx, Jxy, Jyx, Jyy; the non-state
// variables are eliminated by the small linear solve Jyy*y = -(Jyx*x+ey)
// (Eq. 4); and the state variables are advanced by an explicit
// variable-step Adams-Bashforth formula (Eq. 5) whose step size is kept
// inside the diagonal-dominance stability bound (Eqs. 6-7).
package core

// Block is one component block of the analogue part of the system: it
// contributes local state equations and local algebraic (terminal
// relation) equations, expressed against the global terminal variables
// it declares (paper Fig. 3).
//
// A block provides two views of the same device equations:
//
//   - Linearise: the piecewise/locally linearised Jacobian stamps used by
//     the proposed explicit engine. For nonlinear devices these come from
//     lookup tables (see internal/pwl), so a refresh is O(1).
//   - EvalNonlinear/JacNonlinear: the exact nonlinear residuals and exact
//     derivatives, used by the Newton-Raphson implicit baseline engines
//     (the "existing technique" of the paper's Tables I-II).
type Block interface {
	// Name identifies the block instance (unique within a System).
	Name() string

	// NumStates returns the number of local state variables.
	NumStates() int

	// NumEquations returns the number of local algebraic equations the
	// block contributes. Across the whole system the equation count must
	// equal the number of distinct terminal variables so that Jyy is
	// square.
	NumEquations() int

	// Terminals returns the names of the global terminal variables this
	// block references, in local order. Blocks sharing a name share the
	// variable — that is what connects them.
	Terminals() []string

	// InitState writes the block's initial local state into x
	// (len == NumStates()).
	InitState(x []float64)

	// Linearise refreshes the block's stamps of the global linearised
	// model at operating point (t, x, y) where x is the local state view
	// and y holds the values of the block's terminals (local order).
	// It must write state rows
	//
	//	xdot_i = sum_j A_ij x_j + sum_k B_ik y_k + E_i
	//
	// and algebraic rows
	//
	//	0 = sum_j C_ej x_j + sum_k D_ek y_k + G_e
	//
	// through st. The returned flag reports whether any Jacobian entry
	// (A..D) changed relative to the previous call; excitation entries
	// (E, G) may change freely without reporting. The engine uses the
	// flag for Jyy refactorisation and local-linearisation-error
	// monitoring (paper Eq. 3).
	Linearise(t float64, x, y []float64, st Stamp) (changed bool)

	// EvalNonlinear writes the exact state derivatives fx and algebraic
	// residuals fy at (t, x, y), local views as in Linearise.
	EvalNonlinear(t float64, x, y []float64, fx, fy []float64)

	// JacNonlinear stamps the exact Jacobians of EvalNonlinear at
	// (t, x, y) through st (same row/column conventions as Linearise,
	// including the E/G excitation entries, which Newton engines ignore).
	JacNonlinear(t float64, x, y []float64, st Stamp)
}

// Stamp gives a block offset-translated write access to the global
// linearisation storage. Row/column indices are local to the block;
// terminal column indices follow the order of Terminals().
type Stamp struct {
	sys *System
	blk int
	// exact marks the stamps of System.JacNonlinear, which bypass the
	// Jacobian change log: the implicit engines never read it, and the
	// proposed engine's next Begin discards the log anyway.
	exact bool
}

// A sets the local state-to-state Jacobian entry (row i, column j).
func (s Stamp) A(i, j int, v float64) {
	off := s.sys.xOff[s.blk]
	s.sys.jac.set(qxx, off+i, off+j, v, !s.exact)
}

// B sets the local state-to-terminal Jacobian entry (row i, terminal k).
func (s Stamp) B(i, k int, v float64) {
	s.sys.jac.set(qxy, s.sys.xOff[s.blk]+i, s.sys.termMap[s.blk][k], v, !s.exact)
}

// C sets the local equation-to-state Jacobian entry (equation e, column j).
func (s Stamp) C(e, j int, v float64) {
	s.sys.jac.set(qyx, s.sys.eqOff[s.blk]+e, s.sys.xOff[s.blk]+j, v, !s.exact)
}

// D sets the local equation-to-terminal Jacobian entry (equation e,
// terminal k).
func (s Stamp) D(e, k int, v float64) {
	s.sys.jac.set(qyy, s.sys.eqOff[s.blk]+e, s.sys.termMap[s.blk][k], v, !s.exact)
}

// E sets the local state excitation entry (row i).
func (s Stamp) E(i int, v float64) {
	s.sys.Ex[s.sys.xOff[s.blk]+i] = v
}

// G sets the local algebraic excitation entry (equation e).
func (s Stamp) G(e int, v float64) {
	s.sys.Ey[s.sys.eqOff[s.blk]+e] = v
}

package core

import (
	"fmt"

	"harvsim/internal/la"
)

// System composes component blocks into the global linearised state-space
// model of paper Eq. (2). Building the system computes the global state
// and terminal-variable indexing; blocks connected to the same terminal
// name share the variable, which is how the composite model of Section
// III-E eliminates the inter-block terminals.
type System struct {
	blocks []Block

	termNames []string
	termIdx   map[string]int

	xOff    []int   // per block: offset of its states in the global x
	eqOff   []int   // per block: offset of its algebraic rows
	termMap [][]int // per block: local terminal -> global terminal index

	nx, ny int
	built  bool

	// Global linearisation storage (paper Eq. 2), stamped by blocks. The
	// four Jacobian blocks are views of jac, which also logs the entries
	// the stamps change between linearisation refreshes.
	jac *jacobian
	Jxx *la.Matrix // N x N
	Jxy *la.Matrix // N x M
	Jyx *la.Matrix // M x N
	Jyy *la.Matrix // M x M
	Ex  []float64  // N
	Ey  []float64  // M

	dirty bool // a parameter change invalidated the linearisation

	// fromState marks, by bit, the blocks among the first 64 whose
	// Linearise reads only t and their states (StateLineariser); the
	// re-check after a terminal solve skips them.
	fromState uint64

	// scratch for per-block local views
	yLocal [][]float64

	// Optional workspace recycling: when pool is set before Build, the
	// Jacobian/excitation storage (and the engine scratch of any Engine
	// attached to this system) comes from a pooled Workspace instead of
	// fresh allocations.
	pool *WorkspacePool
	ws   *Workspace
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{termIdx: make(map[string]int)}
}

// AddBlock appends a component block. Must be called before Build.
func (s *System) AddBlock(b Block) {
	if s.built {
		panic("core: AddBlock after Build")
	}
	s.blocks = append(s.blocks, b)
}

// Build finalises the composition: assigns offsets, verifies that the
// algebraic system is square (equations == terminal variables), and
// allocates the global Jacobian storage.
func (s *System) Build() error {
	if s.built {
		return nil
	}
	if len(s.blocks) == 0 {
		return fmt.Errorf("core: system has no blocks")
	}
	names := make(map[string]bool)
	s.xOff = make([]int, len(s.blocks))
	s.eqOff = make([]int, len(s.blocks))
	s.termMap = make([][]int, len(s.blocks))
	s.yLocal = make([][]float64, len(s.blocks))
	nx, neq := 0, 0
	s.fromState = 0
	for i, b := range s.blocks {
		if names[b.Name()] {
			return fmt.Errorf("core: duplicate block name %q", b.Name())
		}
		names[b.Name()] = true
		if sl, ok := b.(StateLineariser); ok && sl.LinearisesFromState() && i < 64 {
			s.fromState |= 1 << i
		}
		s.xOff[i] = nx
		s.eqOff[i] = neq
		nx += b.NumStates()
		neq += b.NumEquations()
		terms := b.Terminals()
		s.termMap[i] = make([]int, len(terms))
		s.yLocal[i] = make([]float64, len(terms))
		for k, name := range terms {
			idx, ok := s.termIdx[name]
			if !ok {
				idx = len(s.termNames)
				s.termIdx[name] = idx
				s.termNames = append(s.termNames, name)
			}
			s.termMap[i][k] = idx
		}
	}
	s.nx = nx
	s.ny = len(s.termNames)
	if neq != s.ny {
		return fmt.Errorf("core: algebraic system not square: %d equations for %d terminal variables",
			neq, s.ny)
	}
	if s.pool != nil {
		// Recycled storage: zero it — blocks stamp only their own
		// entries and rely on untouched entries being zero.
		s.ws = s.pool.Get(nx, s.ny)
		s.jac = s.ws.jac
		s.jac.reset()
		s.Ex, s.Ey = s.ws.ex, s.ws.ey
		la.ZeroVec(s.Ex)
		la.ZeroVec(s.Ey)
	} else {
		s.jac = newJacobian(nx, s.ny)
		s.Ex = make([]float64, nx)
		s.Ey = make([]float64, s.ny)
	}
	s.Jxx, s.Jxy, s.Jyx, s.Jyy = s.jac.m[qxx], s.jac.m[qxy], s.jac.m[qyx], s.jac.m[qyy]
	s.built = true
	s.dirty = true
	return nil
}

// UsePool directs Build to draw the linearisation storage (and the march
// scratch of any Engine running on this system) from the pool's recycled
// workspaces. Must be called before Build; a nil pool is a no-op.
func (s *System) UsePool(p *WorkspacePool) {
	if s.built {
		panic("core: UsePool after Build")
	}
	s.pool = p
}

// Workspace returns the pooled workspace backing this system, or nil
// when the system owns its storage.
func (s *System) Workspace() *Workspace { return s.ws }

// Release returns the system's workspace to the pool it came from. The
// system and every engine bound to it must not be used afterwards: their
// storage now belongs to the pool and will be handed to the next Get.
// Release on a system without a pooled workspace is a no-op.
func (s *System) Release() {
	if s.ws == nil {
		return
	}
	if s.pool != nil {
		s.pool.Put(s.ws)
	}
	s.ws = nil
	s.jac = nil
	s.Jxx, s.Jxy, s.Jyx, s.Jyy = nil, nil, nil, nil
	s.Ex, s.Ey = nil, nil
}

// MustBuild is Build that panics on error.
func (s *System) MustBuild() {
	if err := s.Build(); err != nil {
		panic(err)
	}
}

// NX returns the global state count N.
func (s *System) NX() int { return s.nx }

// NY returns the global terminal-variable count M.
func (s *System) NY() int { return s.ny }

// Blocks returns the composed blocks.
func (s *System) Blocks() []Block { return s.blocks }

// Terminal returns the global index of a terminal variable name,
// building the system first if necessary.
func (s *System) Terminal(name string) (int, bool) {
	s.MustBuild()
	i, ok := s.termIdx[name]
	return i, ok
}

// MustTerminal is Terminal that panics when the name is unknown.
func (s *System) MustTerminal(name string) int {
	i, ok := s.Terminal(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown terminal %q", name))
	}
	return i
}

// TerminalNames returns the terminal variable names in global order.
func (s *System) TerminalNames() []string { return s.termNames }

// StateOffset returns the offset of the named block's states in the
// global state vector, building the system first if necessary.
func (s *System) StateOffset(blockName string) (int, bool) {
	s.MustBuild()
	for i, b := range s.blocks {
		if b.Name() == blockName {
			return s.xOff[i], true
		}
	}
	return 0, false
}

// MustStateOffset is StateOffset that panics when the block is unknown.
func (s *System) MustStateOffset(blockName string) int {
	off, ok := s.StateOffset(blockName)
	if !ok {
		panic(fmt.Sprintf("core: unknown block %q", blockName))
	}
	return off
}

// InitState writes the blocks' initial conditions into x (length NX).
func (s *System) InitState(x []float64) {
	if len(x) != s.nx {
		panic("core: InitState length mismatch")
	}
	for i, b := range s.blocks {
		b.InitState(x[s.xOff[i] : s.xOff[i]+b.NumStates()])
	}
}

// Invalidate marks the current linearisation stale, e.g. after a digital
// event changed a block parameter (load mode, tuning force). The next
// Linearise call will report a change regardless of block deltas.
func (s *System) Invalidate() { s.dirty = true }

// LineariseResetter is implemented by blocks whose Linearise caches
// stamp state (last PWL segment, last tangent) to skip redundant
// restamping. ResetLinearisation discards those caches so the next
// Linearise stamps everything afresh, exactly as a newly constructed
// block would.
type LineariseResetter interface {
	ResetLinearisation()
}

// ResetLinearisation invalidates the system AND every block's cached
// stamp state, and zeroes the Jacobian (with its change log, varying
// set and stamp pattern) and the excitations, as Build does on
// recycled storage. Reusing a system for a new run requires this rather
// than plain Invalidate: blocks whose change-detection thresholds would
// tolerate the previous run's final tangent must restamp from the fresh
// initial operating point, and entries that only an implicit engine's
// exact stamps write (System.JacNonlinear) must not outlive its run, or
// the reused run would differ in the last bits from a freshly assembled
// one.
func (s *System) ResetLinearisation() {
	s.dirty = true
	if s.jac != nil {
		s.jac.reset()
		la.ZeroVec(s.Ex)
		la.ZeroVec(s.Ey)
	}
	for _, b := range s.blocks {
		if r, ok := b.(LineariseResetter); ok {
			r.ResetLinearisation()
		}
	}
}

// StateLineariser is implemented by blocks that can declare their
// Linearise a function of t and their states alone: it never reads the
// terminal values, so a second call at the same (t, x) writes the same
// stamps and returns false. The proposed engine's re-check after the
// terminal solve (paper Eq. 4), which changes y only, then skips the
// block. Blocks that do not implement it are always re-checked.
type StateLineariser interface {
	LinearisesFromState() bool
}

// gatherLocalY fills the per-block terminal value views from the global y.
func (s *System) gatherLocalY(i int, y []float64) []float64 {
	loc := s.yLocal[i]
	for k, g := range s.termMap[i] {
		loc[k] = y[g]
	}
	return loc
}

// Linearise refreshes the global linearised model at operating point
// (t, x, y) by delegating to every block, and reports whether any
// Jacobian entry changed (always true after Invalidate).
func (s *System) Linearise(t float64, x, y []float64) (changed bool) {
	return s.linearise(t, x, y, false)
}

// relinearise is Linearise after a terminal solve at the (t, x) of the
// previous Linearise: it skips the blocks that linearise from their
// states alone (StateLineariser), whose call would repeat the last.
func (s *System) relinearise(t float64, x, y []float64) (changed bool) {
	return s.linearise(t, x, y, true)
}

func (s *System) linearise(t float64, x, y []float64, recheck bool) (changed bool) {
	if !s.built {
		panic("core: Linearise before Build")
	}
	changed = s.dirty
	for i, b := range s.blocks {
		if recheck && i < 64 && s.fromState>>i&1 != 0 {
			continue
		}
		xl := x[s.xOff[i] : s.xOff[i]+b.NumStates()]
		yl := s.gatherLocalY(i, y)
		if b.Linearise(t, xl, yl, Stamp{sys: s, blk: i}) {
			changed = true
		}
	}
	s.dirty = false
	return changed
}

// EvalNonlinear assembles the exact global residual functions
// fx (length NX) and fy (length NY) at (t, x, y) from the blocks' device
// equations. Used by the implicit baseline engines.
func (s *System) EvalNonlinear(t float64, x, y, fx, fy []float64) {
	if len(fx) != s.nx || len(fy) != s.ny || len(x) != s.nx || len(y) != s.ny {
		panic("core: EvalNonlinear length mismatch")
	}
	for i, b := range s.blocks {
		xl := x[s.xOff[i] : s.xOff[i]+b.NumStates()]
		yl := s.gatherLocalY(i, y)
		fxl := fx[s.xOff[i] : s.xOff[i]+b.NumStates()]
		fyl := fy[s.eqOff[i] : s.eqOff[i]+b.NumEquations()]
		b.EvalNonlinear(t, xl, yl, fxl, fyl)
	}
}

// JacNonlinear stamps the exact global Jacobians at (t, x, y) into the
// system's matrices (overwriting the PWL linearisation stamps — implicit
// engines own the storage while they run).
func (s *System) JacNonlinear(t float64, x, y []float64) {
	for i, b := range s.blocks {
		xl := x[s.xOff[i] : s.xOff[i]+b.NumStates()]
		yl := s.gatherLocalY(i, y)
		b.JacNonlinear(t, xl, yl, Stamp{sys: s, blk: i, exact: true})
	}
	s.dirty = true // PWL engines must re-stamp afterwards
}

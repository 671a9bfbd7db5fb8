package core

import (
	"fmt"

	"harvsim/internal/la"
	"harvsim/internal/ode"
)

// Workspace owns every piece of per-shape storage a linearised
// state-space simulation needs: the system's global Jacobian/excitation
// storage (paper Eq. 2) and the engine's march scratch (state vectors,
// elimination LU, reduced/balanced matrices, Adams-Bashforth history
// ring, stability-iteration vectors). A workspace is bound to an exact
// shape (NX states, NY terminal variables); the Adams-Bashforth storage
// is sized for ode.MaxABOrder so one workspace serves any engine order.
//
// Workspaces exist so that repeated simulations of same-shape systems —
// a batch sweep over a design grid, a re-run after Engine.Reset — rebuild
// *state*, never *storage*: acquiring a pooled workspace replaces a dozen
// make/NewMatrix calls per job with a map lookup, and after the engine's
// warm-up a simulation step performs zero heap allocations.
type Workspace struct {
	nx, ny int

	// System linearisation storage (bound by System.Build when the
	// system was given a pool): the Jacobian with its change log, and
	// the excitations.
	jac    *jacobian
	ex, ey []float64

	// owner is the engine whose march scratch this workspace backs.
	// Only one engine may bind a workspace: a second engine on the same
	// pooled system gets private storage instead of silently aliasing
	// (and clobbering) the first engine's state views. Cleared on Put.
	owner *Engine

	// Engine march scratch (bound by Engine on first use).
	x, y, yRHS, f []float64
	xNext, xLow   []float64
	errv          []float64
	luYY          *la.LU
	red, bal, kM  *la.Matrix
	hist          *ode.History
	times         []float64
	coefP, coefL  []float64
	dScale        []float64
	powX, powY    []float64 // spectral-radius power-iteration scratch
}

// NewWorkspace allocates a workspace for an nx-state, ny-terminal system.
func NewWorkspace(nx, ny int) *Workspace {
	if nx < 0 || ny < 0 {
		panic(fmt.Sprintf("core: invalid workspace shape %dx%d", nx, ny))
	}
	return &Workspace{
		nx:  nx,
		ny:  ny,
		jac: newJacobian(nx, ny),
		ex:  make([]float64, nx),
		ey:  make([]float64, ny),

		x:      make([]float64, nx),
		y:      make([]float64, ny),
		yRHS:   make([]float64, ny),
		f:      make([]float64, nx),
		xNext:  make([]float64, nx),
		xLow:   make([]float64, nx),
		errv:   make([]float64, nx),
		luYY:   la.NewLU(ny),
		red:    la.NewMatrix(nx, nx),
		bal:    la.NewMatrix(nx, nx),
		kM:     la.NewMatrix(ny, nx),
		hist:   ode.NewHistory(nx, ode.MaxABOrder),
		times:  make([]float64, ode.MaxABOrder),
		coefP:  make([]float64, ode.MaxABOrder),
		coefL:  make([]float64, ode.MaxABOrder),
		dScale: make([]float64, nx),
		powX:   make([]float64, nx),
		powY:   make([]float64, nx),
	}
}

// NX returns the workspace's state dimension.
func (w *Workspace) NX() int { return w.nx }

// NY returns the workspace's terminal-variable dimension.
func (w *Workspace) NY() int { return w.ny }

// Fits reports whether the workspace serves exactly the given shape.
// Exact matching (rather than >=) keeps reused runs bit-identical to
// fresh ones: every slice has the same length, so no loop bound or norm
// divisor changes.
func (w *Workspace) Fits(nx, ny int) bool { return w.nx == nx && w.ny == ny }

// WorkspacePool recycles workspaces by shape. It is NOT safe for
// concurrent use: the batch layer gives each worker goroutine its own
// pool, which also keeps the free lists core-local. The zero value is
// not ready; use NewWorkspacePool.
type WorkspacePool struct {
	free map[[2]int][]*Workspace

	gets, hits int
}

// NewWorkspacePool returns an empty pool.
func NewWorkspacePool() *WorkspacePool {
	return &WorkspacePool{free: make(map[[2]int][]*Workspace)}
}

// Get returns a workspace for the shape, reusing a previously Put one
// when available. The caller owns the workspace until Put.
func (p *WorkspacePool) Get(nx, ny int) *Workspace {
	p.gets++
	key := [2]int{nx, ny}
	if l := p.free[key]; len(l) > 0 {
		w := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[key] = l[:len(l)-1]
		p.hits++
		return w
	}
	return NewWorkspace(nx, ny)
}

// Put returns a workspace to the pool. The caller must not use it (or
// any System/Engine bound to it) afterwards.
func (p *WorkspacePool) Put(w *Workspace) {
	if w == nil {
		return
	}
	w.owner = nil
	key := [2]int{w.nx, w.ny}
	p.free[key] = append(p.free[key], w)
}

// Stats reports how many Gets the pool served and how many were satisfied
// by reuse rather than fresh allocation.
func (p *WorkspacePool) Stats() (gets, hits int) { return p.gets, p.hits }

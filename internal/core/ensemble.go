package core

import (
	"math"

	"harvsim/internal/la"
)

// EnsembleShared is the work store of a lockstep ensemble: K engines
// marching K seeds of one design point share elimination factorisations
// through it, so a factorisation any member already performed for the
// exact same Jyy contents is served, not repeated. Entries are
// content-addressed (FNV-1a over the raw float bits) and every lookup
// verifies the full contents against the stored copy, so a hit is
// bit-identical to the private factorisation it elides — collisions cost
// a miss, never a wrong answer. That makes sharing a pure optimisation:
// members whose Jacobians drift apart (a Duffing retangent, a diode
// segment change) simply stop matching and fall back to per-member work,
// exactly as the solo engine would.
//
// The store is confined to one goroutine (the lockstep unit); it is not
// locked.
type EnsembleShared struct {
	factors map[uint64][]*factorEntry
	entries int

	// Counters for diagnostics and tests.
	FactorHits, FactorMisses int
}

// ensembleStoreCap bounds the store; past it the map is cleared
// (deterministically — eviction only ever costs recomputation).
const ensembleStoreCap = 4096

// NewEnsembleShared returns an empty store.
func NewEnsembleShared() *EnsembleShared {
	return &EnsembleShared{factors: make(map[uint64][]*factorEntry)}
}

type factorEntry struct {
	jyy []float64 // exact matrix contents the factorisation is of
	lu  *la.LU
}

func hashFloats(h *uint64, v []float64) {
	const prime64 = 1099511628211
	x := *h
	for _, f := range v {
		b := math.Float64bits(f)
		for s := 0; s < 64; s += 8 {
			x ^= (b >> s) & 0xff
			x *= prime64
		}
	}
	*h = x
}

// newHash returns the FNV-1a 64-bit offset basis.
func newHash() uint64 { return 14695981039346656037 }

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (s *EnsembleShared) maybeEvict() {
	if s.entries < ensembleStoreCap {
		return
	}
	s.factors = make(map[uint64][]*factorEntry)
	s.entries = 0
}

// factorOf returns an LU factorisation of jyy, served from the store
// when any member already factored the exact same contents. The
// returned factorisation's factor data is immutable; Solve uses only
// internal scratch, so one entry safely serves every member in turn.
func (s *EnsembleShared) factorOf(jyy *la.Matrix) (*la.LU, error) {
	key := newHash()
	hashFloats(&key, jyy.Data)
	for _, ent := range s.factors[key] {
		if floatsEqual(ent.jyy, jyy.Data) {
			s.FactorHits++
			return ent.lu, nil
		}
	}
	s.FactorMisses++
	lu := la.NewLU(jyy.Rows)
	if err := lu.Factor(jyy); err != nil {
		return nil, err
	}
	s.maybeEvict()
	s.factors[key] = append(s.factors[key], &factorEntry{
		jyy: append([]float64(nil), jyy.Data...),
		lu:  lu,
	})
	s.entries++
	return lu, nil
}

// EnsembleEngine marches K member engines — K seeds of one design point
// — in lockstep: every member advances by one accepted step per round,
// and the members share elimination factorisations through a common
// content-addressed store, so one factorisation serves all K seeds for
// as long as their Jacobians agree
// (always, for a linear device). Each member still runs its exact solo
// march — its own adaptive grid, its own noise realisation, its own
// retangenting — so lockstep output is bit-identical to K solo runs by
// construction; the sharing only removes redundant arithmetic.
type EnsembleEngine struct {
	Members []*Engine
	Share   *EnsembleShared

	// begin-batch scratch
	xs, bs [][]float64
	idxs   []int
}

// NewEnsembleEngine binds the members to a fresh shared store and
// returns the lockstep engine. The members must march on distinct
// systems (one harvester per seed) within a single goroutine.
func NewEnsembleEngine(members []*Engine) *EnsembleEngine {
	share := NewEnsembleShared()
	for _, m := range members {
		m.share = share
	}
	return &EnsembleEngine{Members: members, Share: share}
}

// Run marches every member over [t0, tEnd] and returns one error slot
// per member (nil on success). A failing member stops marching; the
// rest continue to the horizon.
func (ee *EnsembleEngine) Run(t0, tEnd float64) []error {
	k := len(ee.Members)
	errs := make([]error, k)
	done := make([]bool, k)

	// Phase 1: prepare every member (workspace, initial linearisation,
	// first factorisation — served from the shared store after the first
	// member computes it).
	for i, m := range ee.Members {
		if err := m.beginPrepared(t0, tEnd); err != nil {
			errs[i], done[i] = err, true
		}
	}

	// Phase 2: the initial terminal eliminations, batched per shared
	// factorisation — one la.SolveColumns call eliminates every member
	// that resolved to the same factor (all K, for a linear device).
	var lus []*la.LU
	groups := make(map[*la.LU][]int, 1)
	for i, m := range ee.Members {
		if done[i] {
			continue
		}
		m.yElimRHS()
		if _, ok := groups[m.luRef]; !ok {
			lus = append(lus, m.luRef)
		}
		groups[m.luRef] = append(groups[m.luRef], i)
	}
	for _, lu := range lus {
		idxs := groups[lu]
		ee.xs, ee.bs = ee.xs[:0], ee.bs[:0]
		for _, i := range idxs {
			ee.xs = append(ee.xs, ee.Members[i].y)
			ee.bs = append(ee.bs, ee.Members[i].yRHS)
		}
		if err := lu.SolveColumns(ee.xs, ee.bs); err != nil {
			for _, i := range idxs {
				errs[i], done[i] = err, true
			}
		}
	}

	// Phase 3: finish Begin per member (segment-resolution pass, first
	// step choice).
	for i, m := range ee.Members {
		if done[i] {
			continue
		}
		if err := m.beginFinish(); err != nil {
			errs[i], done[i] = err, true
		}
	}

	// Phase 4: lockstep rounds. Round-robin keeps the members' Jacobian
	// evaluations temporally close, so the shared store's working set
	// stays small and hot.
	active := 0
	for i := range done {
		if !done[i] {
			active++
		}
	}
	for active > 0 {
		for i, m := range ee.Members {
			if done[i] {
				continue
			}
			stepDone, err := m.Step()
			if err != nil {
				errs[i], done[i] = err, true
				active--
				continue
			}
			if stepDone {
				errs[i] = m.Finish()
				done[i] = true
				active--
			}
		}
	}
	return errs
}

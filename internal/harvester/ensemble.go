package harvester

import (
	"errors"

	"harvsim/internal/core"
)

// AssembleEnsemble assembles one harvester per scenario — the K seeds
// of one design point — against a shared structure-of-arrays ensemble
// workspace, so the members' march-critical vectors are contiguous and
// a lockstep run walks adjacent memory. The returned workspace keeps the
// SoA blocks alive; it is otherwise only needed by tests.
//
// The scenarios are normally identical up to the noise seed, but
// nothing here requires that: members of a different shape simply get
// private (non-SoA) storage from the pool and still run correctly.
func AssembleEnsemble(scs []Scenario) ([]*Harvester, *core.EnsembleWorkspace, error) {
	if len(scs) == 0 {
		return nil, nil, errors.New("harvester: empty ensemble")
	}
	if err := scs[0].Cfg.Validate(); err != nil {
		return nil, nil, err
	}
	// A throwaway probe assembly learns the system shape; the real
	// members then draw SoA-backed workspaces of exactly that shape.
	probe := New(scs[0].Cfg)
	ew := core.NewEnsembleWorkspace(len(scs), probe.Sys.NX(), probe.Sys.NY())
	pool := ew.Pool()
	hs := make([]*Harvester, len(scs))
	for i, sc := range scs {
		h, err := AssembleWith(sc, pool)
		if err != nil {
			return nil, nil, err
		}
		hs[i] = h
	}
	return hs, ew, nil
}

// RunEnsemble runs the members' engines over [0, duration] in lockstep
// with the harvester-level energy bookkeeping RunEngine performs,
// returning one error slot per member. When every engine is the
// proposed explicit engine the members march through
// core.EnsembleEngine, sharing factorisations; the implicit baselines
// have no lockstep mode and run sequentially
// (which is trivially bit-identical to their solo runs). Either way,
// member i's outcome is exactly hs[i].RunEngine(engs[i], duration).
func RunEnsemble(hs []*Harvester, engs []Engine, duration float64) []error {
	if len(engs) != len(hs) {
		panic("harvester: RunEnsemble member/engine count mismatch")
	}
	errs := make([]error, len(hs))
	cores := make([]*core.Engine, len(engs))
	allCore := true
	for i, eng := range engs {
		ce, ok := eng.(*core.Engine)
		if !ok {
			allCore = false
			break
		}
		cores[i] = ce
	}
	if !allCore {
		for i := range hs {
			errs[i] = hs[i].RunEngine(engs[i], duration)
		}
		return errs
	}
	for _, h := range hs {
		h.defaultBasinSettle(duration)
		x0 := make([]float64, h.Sys.NX())
		h.Sys.InitState(x0)
		h.Energy.StoredT0 = h.Store.StoredEnergy(x0[h.scOff : h.scOff+3])
	}
	ee := core.NewEnsembleEngine(cores)
	runErrs := ee.Run(0, duration)
	for i, h := range hs {
		if runErrs[i] != nil {
			errs[i] = runErrs[i]
			continue
		}
		x := cores[i].State()
		h.Energy.StoredT1 = h.Store.StoredEnergy(x[h.scOff : h.scOff+3])
		h.ModeTrace.Append(h.lastT, float64(h.Store.Mode()))
	}
	return errs
}

// Package harvsim reproduces the linearised state-space simulation
// technique for complete tunable vibration energy harvesting systems of
// Wang, Kazmierski, Al-Hashimi, Weddell, Merrett and Ayala Garcia
// (DATE 2011).
//
// The root package is a thin facade over the internal implementation,
// organised as three sub-surfaces (one file each):
//
//   - harvsim.go — the core model: assemble a Config into a Harvester
//     and run one scenario under one engine.
//   - sweep.go — the batch layer: concurrent sweeps, ensembles, the
//     content-addressed result cache.
//   - serve.go — the service layer: the HTTP sweep server (Serve) and
//     the multi-worker shard coordinator (Coordinate).
//
// Single runs:
//
//	cfg := harvsim.DefaultConfig()
//	h := harvsim.New(cfg)
//	eng, err := h.Run(harvsim.Proposed, 60 /* seconds */, 16)
//
// Many-scenario workloads (design sweeps, cross-engine conformance) go
// through the concurrent batch layer:
//
//	spec := harvsim.SweepSpec{Base: harvsim.BatchJob{Scenario: sc}}
//	results, err := harvsim.Sweep(ctx, spec, harvsim.BatchOptions{})
//
// Every run is deterministic: a Result is a pure function of its
// (Config, scenario schedule, engine, solver) identity, bit-identical
// across serial, pooled, workspace-reused and remote execution. That
// contract powers the content-addressed result cache — attach one via
// BatchOptions.Cache and repeat sweeps are served without simulating:
//
//	cache := harvsim.NewCache(0) // or NewDiskCache(0, dir)
//	results, err = harvsim.Sweep(ctx, spec, harvsim.BatchOptions{Cache: cache})
//
// Stochastic (noise-excited) workloads become honest expected-power
// estimates by sweeping a SeedAxis over realisation seeds and reducing
// with Ensembles/EnsembleTop/EnsembleTable (per-point mean, variance,
// 95% CI).
//
// For shared, long-lived design exploration the same batch layer is
// served over HTTP/JSON (Serve, or the cmd/serve binary): declarative
// sweep specs in, NDJSON result streams out, one content-addressed
// cache spanning every request. A fleet of such servers scales out
// behind a shard coordinator (Coordinate, or the cmd/coord binary),
// which speaks the same wire API and survives worker loss mid-sweep.
//
// See DESIGN.md for the architecture. The paper's tables and figures are
// regenerated by cmd/benchtab; the runnable entry points live under
// cmd/ and examples/.
package harvsim

import (
	"harvsim/internal/blocks"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
)

// Config gathers every component's parameters. See the internal
// harvester package for field documentation.
type Config = harvester.Config

// Harvester is the assembled mixed-technology system.
type Harvester = harvester.Harvester

// Scenario is one of the paper's evaluation runs.
type Scenario = harvester.Scenario

// FreqShift schedules an ambient frequency change.
type FreqShift = harvester.FreqShift

// EngineKind selects the analogue solver.
type EngineKind = harvester.EngineKind

// Engine abstracts the analogue solvers (proposed explicit engine and
// implicit baselines).
type Engine = harvester.Engine

// Engine kinds: the proposed explicit linearised state-space engine and
// the Newton-Raphson implicit baselines of the paper's comparison.
const (
	Proposed     = harvester.Proposed
	ExistingTrap = harvester.ExistingTrap
	ExistingBDF2 = harvester.ExistingBDF2
	ExistingBE   = harvester.ExistingBE
)

// Fidelity selects bench-scale or paper-scale scenario timing.
type Fidelity = harvester.Fidelity

// Fidelity levels.
const (
	Quick      = harvester.Quick
	PaperScale = harvester.PaperScale
)

// DefaultConfig returns the calibrated full-system configuration.
func DefaultConfig() Config { return harvester.DefaultConfig() }

// New assembles a harvester from cfg.
func New(cfg Config) *Harvester { return harvester.New(cfg) }

// Scenario1 is the paper's 1 Hz retune scenario (Fig. 8, Table II).
func Scenario1(f Fidelity) Scenario { return harvester.Scenario1(f) }

// Scenario2 is the 14 Hz wide-range scenario (Fig. 9, Table II).
func Scenario2(f Fidelity) Scenario { return harvester.Scenario2(f) }

// ChargeScenario is the non-tunable supercapacitor charge-up (Table I).
func ChargeScenario(duration float64) Scenario {
	return harvester.ChargeScenario(duration)
}

// NoiseSpec declares a band-limited stochastic excitation component
// (Config.VibNoise). The realisation is a pure function of the spec —
// equal specs reproduce bit-identical excitations — see the blocks
// package for the seeding contract.
type NoiseSpec = blocks.NoiseSpec

// DuffingScenario is the nonlinear-spring charge workload: cubic
// (Duffing) stiffness k3 [N/m^3] on the microgenerator, sinusoidal
// excitation. k3 = 0 reproduces the linear device bit for bit.
func DuffingScenario(duration, k3 float64) Scenario {
	return harvester.DuffingScenario(duration, k3)
}

// BistableScenario is the double-well charge workload: the noise
// excitation driving a microgenerator whose restoring force forms a
// double well of the given well displacement [m] and barrier height
// [J], with optional displacement-dependent coupling corrections
// xi1/xi2. wellM = barrierJ = 0 degenerates bit-identically to
// NoiseScenario.
func BistableScenario(duration, wellM, barrierJ, xi1, xi2, fLo, fHi float64, seed uint64) Scenario {
	return harvester.BistableScenario(duration, wellM, barrierJ, xi1, xi2, fLo, fHi, seed)
}

// BasinStats is a run's inter-well accounting (bistable workloads):
// transit counts and the final basin.
type BasinStats = harvester.BasinStats

// Calibrated bistable defaults for the standard microgenerator
// geometry (see harvester.BistableScenario).
const (
	BistableWellM    = harvester.BistableWellM
	BistableBarrierJ = harvester.BistableBarrierJ
	BistableNoiseRMS = harvester.BistableNoiseRMS
)

// NoiseScenario is the stochastic wideband charge workload: seeded
// band-limited noise over [fLo, fHi] Hz replacing the sinusoid.
func NoiseScenario(duration, fLo, fHi float64, seed uint64) Scenario {
	return harvester.NoiseScenario(duration, fLo, fHi, seed)
}

// RunScenario assembles and runs a scenario under the chosen engine.
func RunScenario(sc Scenario, kind EngineKind, decimate int) (*Harvester, Engine, error) {
	return harvester.RunScenario(sc, kind, decimate)
}

// SolverConfig carries optional numerical overrides (step cap, error
// tolerance, AB order) inside Config; the zero value keeps defaults.
type SolverConfig = harvester.SolverConfig

// Energy summarises a run's energy flows [J]: harvested into the
// multiplier, delivered to the storage, dissipated in the equivalent
// load, and the stored energy at the horizon ends.
type Energy = harvester.Energy

// WorkspacePool recycles same-shape simulation workspaces (Jacobian
// storage, engine scratch) so repeated assemblies rebuild state, not
// storage. It is single-goroutine; the batch runner keeps one per
// worker automatically — a pool here is for callers driving Assemble
// and Release by hand.
type WorkspacePool = core.WorkspacePool

// NewWorkspacePool returns an empty workspace pool.
func NewWorkspacePool() *WorkspacePool { return core.NewWorkspacePool() }

// Assemble builds the harvester for a scenario and schedules its
// frequency shifts, without running it.
func Assemble(sc Scenario) (*Harvester, error) { return harvester.Assemble(sc) }

// AssembleWith is Assemble drawing storage from a workspace pool; call
// Harvester.Release to hand the workspace back for the next assembly.
func AssembleWith(sc Scenario, pool *WorkspacePool) (*Harvester, error) {
	return harvester.AssembleWith(sc, pool)
}

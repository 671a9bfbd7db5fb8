// Package harvester assembles the complete mixed-technology tunable
// energy harvesting system of paper Fig. 1 / Section III-E: the tunable
// electromagnetic microgenerator, the Dickson voltage multiplier, the
// supercapacitor with its mode-switched equivalent load, the linear
// tuning actuator and the autonomous microcontroller process — wired to
// either the proposed explicit linearised state-space engine or the
// Newton-Raphson implicit baselines.
//
// # Determinism contract
//
// A Config (plus a Scenario's schedule and solver/engine selection) is
// a complete value-typed description of a run: equal configs produce
// bit-identical trajectories, traces and energy accounting, no matter
// how the run executes — freshly assembled, Reset and re-run, on a
// recycled workspace, serially or inside the concurrent batch pool.
// Stochastic excitation keeps the contract because a noise realisation
// is a pure function of its spec (see blocks.NoiseSpec). The root
// determinism test suite pins all of this; Scenario.AppendHash turns the
// identity into the canonical content hash the batch layer's result
// cache is keyed on.
package harvester

import (
	"fmt"
	"math"

	"harvsim/internal/actuator"
	"harvsim/internal/blocks"
	"harvsim/internal/core"
	"harvsim/internal/digital"
	"harvsim/internal/implicit"
	"harvsim/internal/trace"
)

// Config gathers every component's parameters.
type Config struct {
	Microgen blocks.MicrogenParams
	Dickson  blocks.DicksonParams
	Supercap blocks.SupercapParams
	Actuator actuator.Params
	MCU      digital.MCUConfig

	VibAmplitude float64 // peak base acceleration of the sinusoid [m/s^2]
	VibFreq      float64 // initial ambient frequency [Hz]

	// VibNoise adds a band-limited stochastic excitation component on top
	// of (or, with VibAmplitude = 0, instead of) the sinusoid. The zero
	// value disables it. The realisation is a pure function of the spec,
	// so a Config remains a complete value-typed description of a run:
	// equal Configs reproduce bit-identical excitations across serial,
	// pooled and Reset-reused executions (see blocks.NoiseSpec).
	VibNoise blocks.NoiseSpec

	InitialTuneHz float64 // generator's initial tuned resonance [Hz]
	InitialVc     float64 // initial supercapacitor voltage [V]

	// Autonomous enables the microcontroller/actuator processes; without
	// it the system is a plain (non-tunable) harvester charging its
	// storage.
	Autonomous bool

	// Solver carries optional numerical overrides; zero values select
	// the calibrated defaults. Making these part of Config keeps every
	// knob a batch sweep may vary in one declarative place.
	Solver SolverConfig
}

// SolverConfig tunes the numerical engines beyond their defaults. The
// zero value means "use the calibrated default" for every field.
type SolverConfig struct {
	HMax    float64 // step-size cap [s]; 0 = 2.5e-4
	Rtol    float64 // relative local-error tolerance; 0 = controller default
	ABOrder int     // proposed engine's Adams-Bashforth order (1..4); 0 = 4
}

// Validate reports configuration errors that assembly would otherwise
// surface as panics deep inside the block constructors — the checks a
// batch sweep needs so one bad axis value fails its job, not the worker.
func (c Config) Validate() error {
	if err := c.VibNoise.Validate(); err != nil {
		return fmt.Errorf("harvester: %w", err)
	}
	if err := c.Dickson.Validate(); err != nil {
		return fmt.Errorf("harvester: %w", err)
	}
	for _, f := range [...]float64{c.Microgen.K3, c.Microgen.K1, c.Microgen.Xi1,
		c.Microgen.Xi2, c.Microgen.Z0, c.VibAmplitude, c.VibFreq} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("harvester: non-finite excitation/spring parameter in config")
		}
	}
	return nil
}

// DefaultConfig returns the calibrated full-system configuration.
func DefaultConfig() Config {
	return Config{
		Microgen:      blocks.DefaultMicrogen(),
		Dickson:       blocks.DefaultDickson(1024),
		Supercap:      blocks.DefaultSupercap(),
		Actuator:      actuator.Default(),
		MCU:           digital.DefaultMCUConfig(),
		VibAmplitude:  0.59,
		VibFreq:       70,
		InitialTuneHz: 70,
		InitialVc:     0,
		Autonomous:    true,
	}
}

// Harvester is the assembled system plus its digital side.
type Harvester struct {
	Cfg Config

	Sys    *core.System
	Vib    *blocks.Vibration
	Gen    *blocks.Microgenerator
	Mult   *blocks.Dickson
	Store  *blocks.Supercap
	Act    *actuator.Actuator
	Kernel *digital.Kernel
	MCU    *digital.MCU
	Meter  *digital.ZeroCrossMeter

	// terminal indices for probes
	idxVm, idxIm, idxVc, idxIc int
	scOff, genOff              int

	tuning  bool
	arrival float64

	// Basin accounting (active when the microgenerator declares a double
	// well): the proof mass is classified into the -1/+1 basin with a
	// ±WellZ/2 hysteresis band, every reclassification is an inter-well
	// transit, and transits at t >= basinSettleT count as settled — the
	// discriminator between a seed captured in one well and one still on
	// the energetic inter-well ("high") orbit.
	basinThr             float64 // hysteresis threshold [m]; 0 = monostable, counting off
	basinSide            int     // current basin (-1/+1), 0 before first classification
	basinTransits        int
	basinSettledTransits int
	basinSettleT         float64
	basinSettleSet       bool

	// Traces recorded during Run.
	VcTrace     *trace.Series // supercapacitor terminal voltage
	PMultIn     *trace.Series // instantaneous power into the multiplier
	PStoreTrace *trace.Series // instantaneous power into the supercap
	ModeTrace   *trace.Series // load mode as a step waveform
	FresTrace   *trace.Series // generator resonant frequency

	// Energy accounting (trapezoidal integrals over the run).
	Energy Energy

	// The latest observed point: its time, the powers the energy
	// integrals close on, and the supercap voltage (LastVc).
	lastT, lastPIn, lastPLoad, lastPStore, lastVc float64
	haveLast                                      bool
}

// Energy summarises the run's energy flows [J].
type Energy struct {
	Harvested float64 // into the multiplier terminals
	ToStore   float64 // into the supercapacitor terminals
	Load      float64 // dissipated in the equivalent load (MCU + actuator)
	StoredT0  float64
	StoredT1  float64
}

// Engine abstracts the two analogue engines.
type Engine interface {
	Run(t0, tEnd float64) error
	Observe(core.Observer)
	State() []float64
	Terminals() []float64
}

// EngineKind selects the solver for Run.
type EngineKind int

const (
	// Proposed is the explicit linearised state-space engine.
	Proposed EngineKind = iota
	// ExistingTrap is trapezoidal + Newton-Raphson (SystemVision-like).
	ExistingTrap
	// ExistingBDF2 is Gear + Newton-Raphson (SystemC-A-like).
	ExistingBDF2
	// ExistingBE is backward-Euler + Newton-Raphson.
	ExistingBE
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case Proposed:
		return "proposed-linearised-state-space"
	case ExistingTrap:
		return "existing-trapezoidal-NR"
	case ExistingBDF2:
		return "existing-bdf2-NR"
	case ExistingBE:
		return "existing-backward-euler-NR"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// New assembles a harvester from cfg with its own storage.
func New(cfg Config) *Harvester { return NewWith(cfg, nil) }

// NewWith assembles a harvester whose Jacobian and engine storage comes
// from the pool's recycled workspaces (nil pool = own storage). Call
// Release when done with the harvester to hand the workspace back; see
// the batch runner for the sweep-amortisation this enables.
func NewWith(cfg Config, pool *core.WorkspacePool) *Harvester {
	h := &Harvester{Cfg: cfg}
	h.Vib = blocks.NewVibration(cfg.VibAmplitude, cfg.VibFreq)
	h.Vib.ConfigureNoise(cfg.VibNoise)
	h.Sys = core.NewSystem()
	if pool != nil {
		h.Sys.UsePool(pool)
	}
	h.Gen = blocks.NewMicrogenerator("gen", cfg.Microgen, h.Vib)
	h.Mult = blocks.NewDickson("mult", cfg.Dickson)
	scp := cfg.Supercap
	scp.V0 = cfg.InitialVc
	h.Store = blocks.NewSupercap("store", scp)
	h.Mult.PrechargeOutput(cfg.InitialVc)
	h.Sys.AddBlock(h.Gen)
	h.Sys.AddBlock(h.Mult)
	h.Sys.AddBlock(h.Store)
	h.Sys.MustBuild()
	h.idxVm = h.Sys.MustTerminal("Vm")
	h.idxIm = h.Sys.MustTerminal("Im")
	h.idxVc = h.Sys.MustTerminal("Vc")
	h.idxIc = h.Sys.MustTerminal("Ic")
	h.scOff = h.Sys.MustStateOffset("store")
	h.genOff = h.Sys.MustStateOffset("gen")
	h.initBasin()

	h.initDigital()

	h.VcTrace = trace.NewSeries("Vc")
	h.PMultIn = trace.NewSeries("Pmult")
	h.PStoreTrace = trace.NewSeries("Pstore")
	h.ModeTrace = trace.NewSeries("mode")
	h.FresTrace = trace.NewSeries("fres")
	return h
}

// initDigital parks the actuator at the initial tuned frequency, builds
// a fresh event kernel/meter and wires the MCU process — the part of
// assembly that Reset repeats for a rerun.
func (h *Harvester) initDigital() {
	cfg := h.Cfg
	ft := cfg.Microgen.ForceForHz(cfg.InitialTuneHz)
	h.Act = actuator.New(cfg.Actuator, 0)
	h.Act.MoveTo(-1e9, h.Act.GapForForce(ft))
	h.Act.Settle(0)
	h.Gen.SetTuningForce(h.Act.ForceAt(0), 0)

	h.Kernel = digital.NewKernel()
	if h.Meter == nil {
		h.Meter = digital.NewZeroCrossMeter(1024)
	} else {
		h.Meter.Reset()
	}
	h.tuning = false
	h.arrival = 0
	if cfg.Autonomous {
		h.wireMCU()
	}
}

// Reset returns the harvester to its freshly assembled state while
// keeping all storage: traces are cleared in place (capacity retained),
// the vibration source, actuator, event kernel, MCU and frequency meter
// restart, the load mode returns to sleep, the energy accounting zeroes,
// and every block's cached linearisation stamps are discarded so the
// next run restamps from the initial operating point. A Reset harvester
// re-runs a scenario bit-identically to a freshly assembled one; callers
// that used Schedule must Schedule again after Reset.
func (h *Harvester) Reset() {
	// Vibration.Reset also clears the stochastic component; re-deriving
	// it from the config's spec regenerates the identical realisation.
	h.Vib.Reset(h.Cfg.VibFreq)
	h.Vib.ConfigureNoise(h.Cfg.VibNoise)
	h.Store.SetMode(blocks.LoadSleep)
	h.initDigital()
	h.VcTrace.Clear()
	h.PMultIn.Clear()
	h.PStoreTrace.Clear()
	h.ModeTrace.Clear()
	h.FresTrace.Clear()
	h.Energy = Energy{}
	h.lastT, h.lastPIn, h.lastPLoad, h.lastPStore, h.lastVc = 0, 0, 0, 0, 0
	h.haveLast = false
	h.initBasin()
	h.basinSettleT, h.basinSettleSet = 0, false
	h.Sys.ResetLinearisation()
}

// initBasin restarts the basin classifier from the configured initial
// displacement. Monostable devices get a zero threshold, which disables
// counting entirely (the observer's fast path).
func (h *Harvester) initBasin() {
	h.basinTransits, h.basinSettledTransits = 0, 0
	h.basinThr, h.basinSide = 0, 0
	if wz := h.Cfg.Microgen.WellZ(); wz > 0 {
		h.basinThr = wz / 2
		switch z0 := h.Cfg.Microgen.Z0; {
		case z0 > 0:
			h.basinSide = 1
		case z0 < 0:
			h.basinSide = -1
		}
	}
}

// BasinStats is the run's inter-well accounting: how often the proof
// mass crossed between wells, how often it still crossed inside the
// settled window, and which well it ended in. All zero for monostable
// devices.
type BasinStats struct {
	Transits        int `json:"transits,omitempty"`
	SettledTransits int `json:"settled_transits,omitempty"`
	// FinalBasin is the sign (-1/+1) of the well the mass ended in; 0
	// for monostable devices (or a bistable run that never left the
	// hysteresis band).
	FinalBasin int `json:"final_basin,omitempty"`
}

// BasinStats returns the basin accounting of the run so far.
func (h *Harvester) BasinStats() BasinStats {
	return BasinStats{
		Transits:        h.basinTransits,
		SettledTransits: h.basinSettledTransits,
		FinalBasin:      h.basinSide,
	}
}

// SetBasinSettle fixes the settled-window boundary [s] for the
// settled-transit counter. The batch runner calls it with
// duration*settleFrac before every run — the same boundary the power
// metrics use, and part of the cache identity — so basin reductions are
// deterministic across dispatch modes. Unset, RunEngine defaults it to
// duration/3 (the batch default fraction).
func (h *Harvester) SetBasinSettle(t float64) {
	h.basinSettleT = t
	h.basinSettleSet = true
}

// defaultBasinSettle applies the duration/3 default when no explicit
// settle boundary was set for this run.
func (h *Harvester) defaultBasinSettle(duration float64) {
	if !h.basinSettleSet {
		h.basinSettleT = duration / 3
	}
}

// observeBasin classifies one accepted step's displacement. Called on
// the engine's observer path: no allocation, integer work only, and a
// single compare for monostable devices.
func (h *Harvester) observeBasin(t, z float64) {
	if h.basinThr == 0 {
		return
	}
	side := 0
	switch {
	case z >= h.basinThr:
		side = 1
	case z <= -h.basinThr:
		side = -1
	default:
		return
	}
	if h.basinSide != side {
		if h.basinSide != 0 {
			h.basinTransits++
			if t >= h.basinSettleT {
				h.basinSettledTransits++
			}
		}
		h.basinSide = side
	}
}

// Release hands the harvester's pooled workspace back to its pool (a
// no-op for harvesters assembled without one). The harvester and any
// engine built from it must not be used afterwards.
func (h *Harvester) Release() { h.Sys.Release() }

// wireMCU connects the microcontroller process to the analogue blocks,
// actuator and sensors.
func (h *Harvester) wireMCU() {
	h.MCU = digital.NewMCU(h.Kernel, h.Cfg.MCU)
	h.MCU.ReadVc = func(t float64) float64 {
		return h.LastVc()
	}
	h.MCU.AmbientHz = func(t float64) float64 {
		f := h.Meter.Measure(t, h.Cfg.MCU.MeasureTime)
		if math.IsNaN(f) {
			// Sensor produced no usable crossings (e.g. tiny amplitude):
			// fall back to the excitation's actual frequency.
			f = h.Vib.Freq(t)
		}
		return f
	}
	h.MCU.ResonantHz = func(t float64) float64 {
		return h.Cfg.Microgen.TunedHz(h.Act.ForceAt(t))
	}
	h.MCU.SetMode = func(m digital.Mode) bool {
		switch m {
		case digital.ModeAwake:
			h.Store.SetMode(blocks.LoadMCU)
		case digital.ModeTuning:
			h.Store.SetMode(blocks.LoadTuning)
		default:
			h.Store.SetMode(blocks.LoadSleep)
		}
		h.Sys.Invalidate()
		return true
	}
	h.MCU.TuneStep = func(t, targetHz float64) (done, changed bool) {
		if !h.tuning {
			gap := h.Act.GapForForce(h.Cfg.Microgen.ForceForHz(targetHz))
			h.arrival = h.Act.MoveTo(t, gap)
			h.tuning = true
		}
		h.Gen.SetTuningForce(h.Act.ForceAt(t), 0)
		h.Sys.Invalidate()
		if t >= h.arrival {
			h.Act.Settle(t)
			h.tuning = false
			return true, true
		}
		return false, true
	}
	h.MCU.TuneHalt = func(t float64) bool {
		h.Act.Halt(t)
		h.tuning = false
		h.Gen.SetTuningForce(h.Act.ForceAt(t), 0)
		h.Sys.Invalidate()
		return true
	}
	h.MCU.Start(0)
}

// LastVc returns the supercap terminal voltage at the latest observed
// point, whatever the trace decimation: after a run, the voltage at the
// horizon; before the first point, the initial condition.
func (h *Harvester) LastVc() float64 {
	if !h.haveLast {
		return h.Cfg.InitialVc
	}
	return h.lastVc
}

// NewEngine builds the chosen analogue engine wired to the digital
// kernel and the waveform probes. decimate keeps every n-th sample in
// the traces (1 = keep all).
func (h *Harvester) NewEngine(kind EngineKind, decimate int) Engine {
	hmax := h.Cfg.Solver.HMax
	if hmax <= 0 {
		hmax = 2.5e-4
	}
	var eng Engine
	switch kind {
	case Proposed:
		e := core.NewEngine(h.Sys)
		e.Ctl.HMax = hmax
		if h.Cfg.Solver.Rtol > 0 {
			e.Ctl.Rtol = h.Cfg.Solver.Rtol
		}
		if h.Cfg.Solver.ABOrder > 0 {
			e.Order = h.Cfg.Solver.ABOrder
		}
		e.Events = h.Kernel
		eng = e
	case ExistingTrap, ExistingBDF2, ExistingBE:
		m := implicit.Trapezoidal
		switch kind {
		case ExistingBDF2:
			m = implicit.BDF2
		case ExistingBE:
			m = implicit.BackwardEuler
		}
		e := implicit.NewEngine(h.Sys, m)
		e.Ctl.HMax = hmax
		if h.Cfg.Solver.Rtol > 0 {
			e.Ctl.Rtol = h.Cfg.Solver.Rtol
		}
		e.Events = h.Kernel
		eng = e
	default:
		panic(fmt.Sprintf("harvester: unknown engine kind %d", int(kind)))
	}
	h.attachProbes(eng, decimate)
	return eng
}

// attachProbes wires the traces, the frequency meter and the energy
// integrals to the engine.
func (h *Harvester) attachProbes(eng Engine, decimate int) {
	if decimate < 1 {
		decimate = 1
	}
	vcDec := trace.NewDecimator(h.VcTrace, decimate)
	pDec := trace.NewDecimator(h.PMultIn, decimate)
	psDec := trace.NewDecimator(h.PStoreTrace, decimate)
	fDec := trace.NewDecimator(h.FresTrace, decimate*4)
	count := 0
	eng.Observe(func(t float64, x, y []float64) {
		pin := y[h.idxVm] * y[h.idxIm]
		h.observeBasin(t, x[h.genOff])
		// The frequency meter samples the accelerometer signal.
		h.Meter.Sample(t, h.Vib.Accel(t))
		// Energy integrals (trapezoidal).
		vc := y[h.idxVc]
		pstore := vc * y[h.idxIc]
		pload := vc * vc / h.Store.Mode().Req()
		if h.haveLast && t > h.lastT {
			dt := t - h.lastT
			h.Energy.Harvested += dt * (pin + h.lastPIn) / 2
			h.Energy.ToStore += dt * (pstore + h.lastPStore) / 2
			h.Energy.Load += dt * (pload + h.lastPLoad) / 2
		}
		h.lastT, h.lastPIn, h.lastPLoad, h.lastPStore, h.lastVc = t, pin, pload, pstore, vc
		h.haveLast = true
		// Traces, decimated in sample count. The MCU reads LastVc, not
		// the trace, so decimation cannot change what it sees.
		vcDec.Append(t, vc)
		pDec.Append(t, pin)
		psDec.Append(t, pstore)
		if count%16 == 0 {
			fDec.Append(t, h.Cfg.Microgen.TunedHz(h.Act.ForceAt(t)))
		}
		count++
	})
}

// Run assembles an engine of the given kind, runs [0, duration] and
// returns it (for stats inspection).
func (h *Harvester) Run(kind EngineKind, duration float64, decimate int) (Engine, error) {
	eng := h.NewEngine(kind, decimate)
	return eng, h.RunEngine(eng, duration)
}

// RunEngine runs a previously built engine over [0, duration] with the
// harvester's energy bookkeeping. Splitting construction from execution
// lets callers (the batch runner, conformance harnesses) attach extra
// observers or adjust engine settings between NewEngine and the run.
func (h *Harvester) RunEngine(eng Engine, duration float64) error {
	h.defaultBasinSettle(duration)
	x0 := make([]float64, h.Sys.NX())
	h.Sys.InitState(x0)
	h.Energy.StoredT0 = h.Store.StoredEnergy(x0[h.scOff : h.scOff+3])
	if err := eng.Run(0, duration); err != nil {
		return err
	}
	x := eng.State()
	h.Energy.StoredT1 = h.Store.StoredEnergy(x[h.scOff : h.scOff+3])
	// Mode trace is reconstructed from kernel activity indirectly; record
	// the final mode for completeness.
	h.ModeTrace.Append(h.lastT, float64(h.Store.Mode()))
	return nil
}

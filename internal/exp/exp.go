// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table I, Table II, Fig. 8(a),
// Fig. 8(b), Fig. 9) plus the ablations called out in DESIGN.md, on
// scaled or paper-scale horizons. Each experiment returns a structured
// result that the benchmarks assert on and cmd/benchtab renders.
package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/trace"
)

// EngineRun summarises one engine execution.
type EngineRun struct {
	Label string
	// CPUTime is the process CPU time the run took (cpuNow: getrusage
	// where the platform has it, wall-clock time elsewhere).
	CPUTime  time.Duration
	Steps    int
	SimTime  float64
	HMeanSec float64
	// Stats carries the full unified per-run counters (refactorisations,
	// solves, allocations when measured) for the JSON report.
	Stats batch.EngineStats
	// WeightsReused counts the proposed engine's Adams-Bashforth weight
	// sets served from its weight table (core.Stats.WeightsReused).
	WeightsReused int
}

// Speedup returns how much faster this run is than other (by CPU time,
// normalised to equal simulated spans).
func (r EngineRun) Speedup(other EngineRun) float64 {
	if r.CPUTime <= 0 || other.SimTime <= 0 || r.SimTime <= 0 {
		return math.NaN()
	}
	a := float64(other.CPUTime) / other.SimTime
	b := float64(r.CPUTime) / r.SimTime
	return a / b
}

// perStep renders the proposed engine's refreshes, stability analyses
// (and, in parentheses, those computed rather than served from the
// stability memo), elimination solves and AB weight sets served from
// the weight table per accepted step: the counters that set its cost,
// printed beside the Table I/II speedups.
func (r EngineRun) perStep() string {
	if r.Stats.Steps == 0 {
		return "-"
	}
	n := float64(r.Stats.Steps)
	computed := r.Stats.StabilityRecomputes - r.Stats.StabilityReused
	return fmt.Sprintf("%.2f / %.2f (%.3f) / %.2f / %.2f", float64(r.Stats.Refactors)/n,
		float64(r.Stats.StabilityRecomputes)/n, float64(computed)/n, float64(r.Stats.Solves)/n,
		float64(r.WeightsReused)/n)
}

// ExtrapolateTo estimates the CPU time for a longer simulated span
// (per-step cost is duration-invariant, so CPU time scales linearly).
func (r EngineRun) ExtrapolateTo(simTime float64) time.Duration {
	if r.SimTime <= 0 {
		return 0
	}
	return time.Duration(float64(r.CPUTime) * simTime / r.SimTime)
}

// runTimed executes a scenario under one engine and captures its CPU
// time plus the unified per-run counters (steps, refactorisations,
// solves).
func runTimed(label string, sc harvester.Scenario, kind harvester.EngineKind, decimate int) (EngineRun, *harvester.Harvester, error) {
	h := harvester.New(sc.Cfg)
	if err := h.Schedule(sc); err != nil {
		return EngineRun{}, nil, fmt.Errorf("exp: %s: %w", label, err)
	}
	eng := h.NewEngine(kind, decimate)
	c0 := cpuNow()
	err := h.RunEngine(eng, sc.Duration)
	elapsed := cpuNow() - c0
	if err != nil {
		return EngineRun{}, nil, fmt.Errorf("exp: %s failed: %w", label, err)
	}
	stats := batch.StatsOf(eng)
	run := EngineRun{
		Label:    label,
		CPUTime:  elapsed,
		Steps:    stats.Steps,
		SimTime:  sc.Duration,
		HMeanSec: stats.HMean,
		Stats:    stats,
	}
	if ce, ok := eng.(*core.Engine); ok {
		run.WeightsReused = ce.Stats.WeightsReused
	}
	return run, h, nil
}

// MeasurementTwin produces the "experimental measurement" substitute for
// the validation waveforms of Figs. 8(b) and 9: the same scenario with
// the parasitics the paper says its HDL model omits (supercapacitor
// self-discharge, extra diode leakage, coil and damping tolerances),
// solved at a tight step, plus a small deterministic sensor noise. The
// paper attributes the simulation-vs-measurement gap to exactly these
// losses, so adding them reproduces the "close but not identical"
// correlation.
func MeasurementTwin(sc harvester.Scenario, decimate int) (*trace.Series, error) {
	cfg := sc.Cfg
	cfg.Supercap.RLeak = 1.2e6
	cfg.Microgen.Cp *= 1.07
	cfg.Microgen.Rc *= 1.05
	d := *cfg.Dickson.Diode
	d.Is *= 1.6
	d.BuildTable(4096)
	cfg.Dickson.Diode = &d
	twin := sc
	twin.Cfg = cfg
	h, err := harvester.Assemble(twin)
	if err != nil {
		return nil, err
	}
	if _, err := h.Run(harvester.Proposed, twin.Duration, decimate); err != nil {
		return nil, err
	}
	meas := trace.NewSeries("Vc.measured")
	// Deterministic pseudo-noise (instrument quantisation scale).
	seed := uint64(0x9e3779b97f4a7c15)
	for i, t := range h.VcTrace.Times {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		noise := (float64(seed%2048)/1024 - 1) * 2e-3
		meas.Append(t, h.VcTrace.Vals[i]+noise)
	}
	return meas, nil
}

// FormatDuration renders a duration the way the paper's tables do.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	default:
		return fmt.Sprintf("%.3gs", d.Seconds())
	}
}

// tableWriter accumulates aligned rows for terminal output.
type tableWriter struct {
	rows [][]string
}

func (w *tableWriter) add(cells ...string) { w.rows = append(w.rows, cells) }

func (w *tableWriter) String() string {
	if len(w.rows) == 0 {
		return ""
	}
	widths := make([]int, len(w.rows[0]))
	for _, row := range w.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for _, row := range w.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

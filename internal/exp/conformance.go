package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
)

// ConformanceRow is one engine's result on the shared workload, with its
// deviation from the proposed engine's reference values.
type ConformanceRow struct {
	Engine   harvester.EngineKind
	HMax     float64 // step cap the engine ran under
	FinalVc  float64
	RMSPower float64
	Steps    int
	// Wall is the batch job's wall-clock time. The engines run
	// concurrently, so it includes contention, and process CPU time
	// cannot be split between the jobs.
	Wall    time.Duration
	DVc     float64 // |FinalVc - reference|
	DPowRel float64 // |RMSPower - reference| / reference
	Err     error
}

// ConformanceResult is the cross-engine agreement table for one
// scenario. It is the guard against the four engines silently drifting
// apart: the CPU-time benchmarks only measure speed, so a physics
// regression in any one engine would otherwise go unnoticed.
type ConformanceResult struct {
	Title string
	Rows  []ConformanceRow
}

// String renders the agreement table.
func (r ConformanceResult) String() string {
	var w tableWriter
	w.add("Engine", "hmax [s]", "final Vc [V]", "RMS Pin [uW]", "dVc [V]", "dP rel", "Steps", "Wall")
	for _, row := range r.Rows {
		if row.Err != nil {
			w.add(row.Engine.String(), fmt.Sprintf("%.3g", row.HMax), "ERROR: "+row.Err.Error())
			continue
		}
		w.add(row.Engine.String(),
			fmt.Sprintf("%.3g", row.HMax),
			fmt.Sprintf("%.6f", row.FinalVc),
			fmt.Sprintf("%.3f", row.RMSPower*1e6),
			fmt.Sprintf("%.2g", row.DVc),
			fmt.Sprintf("%.3f", row.DPowRel),
			fmt.Sprintf("%d", row.Steps),
			FormatDuration(row.Wall))
	}
	return r.Title + "\n" + w.String()
}

// enginePlan pairs an engine with the step cap it runs under. The
// implicit baselines are dissipative on the harvester's high-Q
// resonator: BDF2 mildly, so it gets a cap tighter than the 2.5e-4 the
// CPU-time tables use and then agrees within a few percent; backward
// Euler severely, at any practical step, so it keeps the default cap
// and the conformance checks hold it to voltage agreement plus the
// directional dissipation property only.
type enginePlan struct {
	kind harvester.EngineKind
	hmax float64
}

func conformancePlans() []enginePlan {
	return []enginePlan{
		{harvester.Proposed, 2.5e-4},
		{harvester.ExistingTrap, 2.5e-4},
		{harvester.ExistingBDF2, 1e-4},
		{harvester.ExistingBE, 2.5e-4},
	}
}

// CrossEngine runs one scenario under all four engines through the
// concurrent batch runner and tabulates the agreement of the final
// supercapacitor voltage and the settled-window RMS input power.
func CrossEngine(title string, sc harvester.Scenario, workers int) (ConformanceResult, error) {
	res := ConformanceResult{Title: title}
	plans := conformancePlans()
	jobs := make([]batch.Job, len(plans))
	for i, p := range plans {
		job := batch.Job{Scenario: sc.Clone(), Engine: p.kind, Decimate: 1}
		job.Scenario.Cfg.Solver.HMax = p.hmax
		jobs[i] = job
	}
	results := batch.Run(context.Background(), jobs, batch.Options{Workers: workers})
	ref := results[0]
	if ref.Err != nil {
		return res, fmt.Errorf("exp: conformance reference run failed: %w", ref.Err)
	}
	for i, r := range results {
		row := ConformanceRow{
			Engine:   plans[i].kind,
			HMax:     plans[i].hmax,
			FinalVc:  r.FinalVc,
			RMSPower: r.RMSPower,
			Steps:    r.Stats.Steps,
			Wall:     r.Elapsed,
			Err:      r.Err,
		}
		if r.Err == nil {
			row.DVc = math.Abs(r.FinalVc - ref.FinalVc)
			if ref.RMSPower > 0 {
				row.DPowRel = math.Abs(r.RMSPower-ref.RMSPower) / ref.RMSPower
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ConformanceCharge is the non-autonomous agreement workload: a charge
// run from a partially charged working point (the multiplier operating
// region, where all the diode nonlinearity is exercised).
func ConformanceCharge(duration float64, workers int) (ConformanceResult, error) {
	sc := harvester.ChargeScenario(duration)
	sc.Cfg.InitialVc = 2.5
	return CrossEngine(
		fmt.Sprintf("Cross-engine conformance — supercap charge (%.3g s from 2.5 V)", duration),
		sc, workers)
}

// ConformanceScenario1 is the autonomous agreement workload: a shortened
// Scenario 1 retune (shift at 2/5 of the horizon) exercising the digital
// kernel, the actuator and the mode-switched load under every engine.
func ConformanceScenario1(duration float64, workers int) (ConformanceResult, error) {
	sc := harvester.Scenario1(harvester.Quick)
	sc.Duration = duration
	sc.Shifts = []harvester.FreqShift{{T: duration * 0.4, Hz: 71}}
	return CrossEngine(
		fmt.Sprintf("Cross-engine conformance — scenario 1 retune (%.3g s)", duration),
		sc, workers)
}

package exp

import (
	"fmt"
	"time"

	"harvsim/internal/harvester"
	"harvsim/internal/trace"
)

// Table2Row is one scenario's existing-vs-proposed comparison (paper
// Table II).
type Table2Row struct {
	Scenario      string
	Existing      EngineRun
	Proposed      EngineRun
	Speedup       float64
	PaperExisting time.Duration
	PaperProposed time.Duration
	// Waveform agreement between the two engines on this run (the
	// paper's "similar accuracy" claim).
	VcRMSE float64
}

// Table2Result is the reproduced Table II.
type Table2Result struct {
	Fidelity harvester.Fidelity
	Rows     []Table2Row
}

// Table2 reproduces the paper's Table II: CPU times of the existing
// technique (implicit trapezoidal integration with a Newton-Raphson
// solve per step, the SystemVision configuration) against the proposed
// linearised state-space technique, for the 1 Hz and 14 Hz tuning
// scenarios.
func Table2(f harvester.Fidelity) (Table2Result, error) {
	res := Table2Result{Fidelity: f}
	cases := []struct {
		sc            harvester.Scenario
		paperExisting time.Duration
		paperProposed time.Duration
	}{
		{harvester.Scenario1(f), 2185 * time.Second, time.Duration(20.3 * float64(time.Second))},
		{harvester.Scenario2(f), 7 * time.Hour, 228 * time.Second},
	}
	for _, c := range cases {
		exRun, exH, err := runTimed(c.sc.Name+"/existing", c.sc, harvester.ExistingTrap, 256)
		if err != nil {
			return res, err
		}
		prRun, prH, err := runTimed(c.sc.Name+"/proposed", c.sc, harvester.Proposed, 256)
		if err != nil {
			return res, err
		}
		cmp := trace.Compare(prH.VcTrace, exH.VcTrace, 400)
		res.Rows = append(res.Rows, Table2Row{
			Scenario:      c.sc.Name,
			Existing:      exRun,
			Proposed:      prRun,
			Speedup:       prRun.Speedup(exRun),
			PaperExisting: c.paperExisting,
			PaperProposed: c.paperProposed,
			VcRMSE:        cmp.RMSE,
		})
	}
	return res, nil
}

// String renders the table with the paper's values alongside, plus the
// extrapolation of both engines to the paper-scale scenario horizons
// (S1: 7200 s, S2: 14400 s simulated) for a like-for-like comparison of
// wall-clock magnitudes.
func (r Table2Result) String() string {
	var w tableWriter
	w.add("Scenario", "Existing (trap+NR)", "Proposed (AB)", "Speedup",
		"Proposed refresh/stab (computed)/solve/reused AB weights per step", "Proposed steps", "Paper", "Vc RMSE [V]")
	for _, row := range r.Rows {
		paper := fmt.Sprintf("%s vs %s (%.0fx)",
			FormatDuration(row.PaperExisting), FormatDuration(row.PaperProposed),
			row.PaperExisting.Seconds()/row.PaperProposed.Seconds())
		w.add(row.Scenario,
			FormatDuration(row.Existing.CPUTime),
			FormatDuration(row.Proposed.CPUTime),
			fmt.Sprintf("%.0fx", row.Speedup),
			row.Proposed.perStep(),
			fmt.Sprintf("%d", row.Proposed.Steps),
			paper,
			fmt.Sprintf("%.2g", row.VcRMSE),
		)
	}
	out := fmt.Sprintf("Table II — existing vs proposed technique (%s scenarios)\n%s",
		r.Fidelity, w.String())
	if r.Fidelity == harvester.Quick {
		horizons := []float64{7200, 14400}
		out += "extrapolated to paper-scale horizons (7200 s / 14400 s simulated):\n"
		for i, row := range r.Rows {
			if i >= len(horizons) {
				break
			}
			out += fmt.Sprintf("  %-16s existing %s, proposed %s (paper: %s vs %s)\n",
				row.Scenario,
				FormatDuration(row.Existing.ExtrapolateTo(horizons[i])),
				FormatDuration(row.Proposed.ExtrapolateTo(horizons[i])),
				FormatDuration(row.PaperExisting), FormatDuration(row.PaperProposed))
		}
	}
	return out
}

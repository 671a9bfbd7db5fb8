// Command benchtab regenerates every table and figure of the paper's
// evaluation section on this machine and prints them in a form directly
// comparable with the paper (see DESIGN.md for the experiment list).
//
//	benchtab                # all experiments, bench-scale horizons
//	benchtab -only table2   # one experiment
//	benchtab -only xengine  # cross-engine conformance tables
//	benchtab -full          # paper-scale scenario horizons (slow!)
//	benchtab -table1-sim 30
package main

import (
	"flag"
	"fmt"
	"os"

	"harvsim/internal/exp"
	"harvsim/internal/harvester"
)

func main() {
	var (
		only      = flag.String("only", "", "run a single experiment: table1, table2, fig8a, fig8b, fig9, ablations, xengine")
		full      = flag.Bool("full", false, "paper-scale scenario horizons (hours of simulated time)")
		table1Sim = flag.Float64("table1-sim", 10, "simulated charging span for Table I [s]")
		ablSim    = flag.Float64("ablation-sim", 3, "simulated span for the ablations [s]")
		xengSim   = flag.Float64("xengine-sim", 2, "simulated span for the cross-engine conformance charge [s]")
		workers   = flag.Int("workers", 0, "batch worker-pool size for xengine (0 = GOMAXPROCS)")
	)
	flag.Parse()

	fid := harvester.Quick
	if *full {
		fid = harvester.PaperScale
	}
	want := func(name string) bool { return *only == "" || *only == name }
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	switch *only {
	case "", "table1", "table2", "fig8a", "fig8b", "fig9", "ablations", "xengine":
	default:
		fmt.Fprintf(os.Stderr, "benchtab: -only %q names no experiment (want table1, table2, fig8a, fig8b, fig9, ablations or xengine)\n", *only)
		os.Exit(2)
	}
	if want("table1") {
		res, err := exp.Table1(*table1Sim)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
		// Extrapolations to a paper-scale 4-hour charge.
		const fullCharge = 4 * 3600.0
		fmt.Println("extrapolated to a 4 h simulated charge:")
		for _, row := range res.Rows {
			fmt.Printf("  %-24s %s\n", row.Simulator, exp.FormatDuration(row.Run.ExtrapolateTo(fullCharge)))
		}
		fmt.Println()
	}
	if want("table2") {
		res, err := exp.Table2(fid)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
	}
	if want("fig8a") {
		res, err := exp.Fig8a(fid)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
	}
	if want("fig8b") {
		res, err := exp.Fig8b(fid)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
	}
	if want("fig9") {
		res, err := exp.Fig9(fid)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.String())
	}
	if want("xengine") {
		// The agreement tables the benchmarks can't provide: the same
		// workload under all four engines, run through the concurrent
		// batch layer, with deviations against the proposed engine.
		charge, err := exp.ConformanceCharge(*xengSim, *workers)
		if err != nil {
			fail(err)
		}
		sc1, err := exp.ConformanceScenario1(20, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(charge.String())
		fmt.Println(sc1.String())
	}
	if want("ablations") {
		for _, run := range []func(float64) (exp.AblationResult, error){
			exp.AblationABOrder, exp.AblationPWL, exp.AblationStability, exp.AblationAccuracy,
		} {
			res, err := run(*ablSim)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.String())
		}
	}
}

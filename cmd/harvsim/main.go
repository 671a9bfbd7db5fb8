// Command harvsim runs one simulation of the complete tunable energy
// harvesting system and writes the recorded waveforms as CSV.
//
// Examples:
//
//	harvsim -scenario s1 -engine proposed -out s1.csv
//	harvsim -scenario charge -duration 120 -engine trap
//	harvsim -scenario s2 -fidelity paper -decimate 512
//	harvsim -scenario duffing -k3 1e9
//	harvsim -scenario noise -noise-lo 55 -noise-hi 85 -noise-seed 7 -k3 1e9
package main

import (
	"flag"
	"fmt"
	"os"

	"harvsim/internal/harvester"
	"harvsim/internal/trace"
)

const usageFooter = `
Scenarios (-scenario):
  charge    non-tunable supercap charge-up at 70 Hz (Table I)
  s1        1 Hz retune: ambient shifts 70 -> 71 Hz, controller retunes (Fig. 8)
  s2        14 Hz retune: 64 -> 78 Hz, duty-cycled tuning bursts (Fig. 9)
  track     slow linear chirp the controller must track repeatedly
  duffing   charge-up with a cubic (Duffing) spring (default k3 1e9 N/m^3)
  noise     charge-up under seeded band-limited noise excitation
  bistable  double-well (bistable) device under seeded noise excitation

Engines (-engine):
  proposed  explicit linearised state-space technique (the paper's)
  trap      trapezoidal + Newton-Raphson (SystemVision-like baseline)
  bdf2      Gear/BDF2 + Newton-Raphson (SystemC-A-like baseline)
  be        backward-Euler + Newton-Raphson baseline

Examples:
  harvsim -scenario s1 -engine proposed -out s1.csv
  harvsim -scenario noise -noise-lo 55 -noise-hi 85 -noise-seed 7 -k3 1e9
  harvsim -scenario bistable -well 5e-4 -barrier 2e-6 -noise-seed 7
`

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"Usage: harvsim [flags]\n\nOne simulation of the complete tunable energy harvesting system.\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprint(flag.CommandLine.Output(), usageFooter)
}

func main() {
	var (
		scenario = flag.String("scenario", "s1", "scenario: charge, s1 (1 Hz retune), s2 (14 Hz retune), track (chirp tracking), duffing (nonlinear spring), noise (stochastic wideband), bistable (double well)")
		engine   = flag.String("engine", "proposed", "engine: proposed, trap, bdf2, be")
		fidelity = flag.String("fidelity", "quick", "scenario timing: quick, paper")
		duration = flag.Float64("duration", 0, "override simulated span [s] (0 = scenario default)")
		decimate = flag.Int("decimate", 64, "keep every n-th waveform sample")
		out      = flag.String("out", "", "CSV output path (default: stdout summary only)")
		vcd      = flag.String("vcd", "", "VCD waveform dump path (viewable in GTKWave)")
		plot     = flag.Bool("plot", true, "print ASCII waveform plots")

		k3       = flag.Float64("k3", 0, "cubic (Duffing) spring coefficient [N/m^3] applied to the chosen scenario (duffing scenario default: 1e9)")
		noiseLo  = flag.Float64("noise-lo", 55, "noise scenario: band lower edge [Hz]")
		noiseHi  = flag.Float64("noise-hi", 85, "noise scenario: band upper edge [Hz]")
		noiseRMS = flag.Float64("noise-rms", 0.59, "noise scenario: RMS base acceleration [m/s^2] (bistable scenario default: 0.5)")
		noiseSd  = flag.Uint64("noise-seed", 1, "noise scenario: realisation seed")
		wellM    = flag.Float64("well", harvester.BistableWellM, "bistable scenario: well displacement [m]")
		barrierJ = flag.Float64("barrier", harvester.BistableBarrierJ, "bistable scenario: double-well barrier height [J]")
		xi1      = flag.Float64("xi1", 0, "bistable scenario: linear coupling correction [1/m]")
		xi2      = flag.Float64("xi2", 0, "bistable scenario: quadratic coupling correction [1/m^2]")
	)
	flag.Usage = usage
	flag.Parse()

	// Validate flags up front: a bad value must produce a usage error and
	// exit 2, not a panic (or a silent clamp) deep inside assembly.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "harvsim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *decimate < 1 {
		usageErr("-decimate must be >= 1 (got %d)", *decimate)
	}
	if *duration < 0 {
		usageErr("-duration must be >= 0 (got %g)", *duration)
	}
	if !(*noiseLo > 0 && *noiseHi > *noiseLo) {
		usageErr("noise band [%g, %g] must satisfy 0 < lo < hi", *noiseLo, *noiseHi)
	}
	if *noiseRMS < 0 {
		usageErr("-noise-rms must be >= 0 (got %g)", *noiseRMS)
	}
	if *wellM < 0 || *barrierJ < 0 {
		usageErr("-well and -barrier must be >= 0 (got %g, %g)", *wellM, *barrierJ)
	}
	// Track which noise knobs were set explicitly: the bistable scenario
	// has its own band and drive defaults (in-well resonance ~18 Hz sits
	// far below the monostable band), overridden only by explicit flags.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	var fid harvester.Fidelity
	switch *fidelity {
	case "quick":
		fid = harvester.Quick
	case "paper":
		fid = harvester.PaperScale
	default:
		usageErr("unknown -fidelity %q (want quick or paper)", *fidelity)
	}
	var sc harvester.Scenario
	switch *scenario {
	case "charge":
		d := *duration
		if d == 0 {
			d = 60
		}
		sc = harvester.ChargeScenario(d)
	case "s1":
		sc = harvester.Scenario1(fid)
	case "s2":
		sc = harvester.Scenario2(fid)
	case "track":
		d := *duration
		if d == 0 {
			d = 150
		}
		sc = harvester.TrackingScenario(d, 66, 72)
	case "duffing":
		d := *duration
		if d == 0 {
			d = 10
		}
		kk := *k3
		if kk == 0 {
			kk = harvester.DuffingK3Moderate
		}
		sc = harvester.DuffingScenario(d, kk)
	case "noise":
		d := *duration
		if d == 0 {
			d = 10
		}
		sc = harvester.NoiseScenario(d, *noiseLo, *noiseHi, *noiseSd)
		sc.Cfg.VibNoise.RMS = *noiseRMS
	case "bistable":
		d := *duration
		if d == 0 {
			d = 10
		}
		fLo, fHi := 8.0, 40.0 // band around the default in-well resonance
		if setFlags["noise-lo"] {
			fLo = *noiseLo
		}
		if setFlags["noise-hi"] {
			fHi = *noiseHi
		}
		sc = harvester.BistableScenario(d, *wellM, *barrierJ, *xi1, *xi2, fLo, fHi, *noiseSd)
		if setFlags["noise-rms"] {
			sc.Cfg.VibNoise.RMS = *noiseRMS
		}
	default:
		usageErr("unknown -scenario %q (want charge, s1, s2, track, duffing, noise or bistable)", *scenario)
	}
	if *duration > 0 {
		sc.Duration = *duration
	}
	// -k3 generalises beyond the duffing scenario: any workload can run
	// with the nonlinear spring.
	if *k3 != 0 {
		sc.Cfg.Microgen.K3 = *k3
	}

	var kind harvester.EngineKind
	switch *engine {
	case "proposed":
		kind = harvester.Proposed
	case "trap":
		kind = harvester.ExistingTrap
	case "bdf2":
		kind = harvester.ExistingBDF2
	case "be":
		kind = harvester.ExistingBE
	default:
		usageErr("unknown -engine %q (want proposed, trap, bdf2 or be)", *engine)
	}

	fmt.Printf("scenario %s (%s), engine %s, %.4g s simulated\n",
		sc.Name, fid, kind, sc.Duration)
	h, _, err := harvester.RunScenario(sc, kind, *decimate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("final supercap voltage: %.4f V\n", h.LastVc())
	if sc.Cfg.Microgen.Bistable() {
		bs := h.BasinStats()
		fmt.Printf("basins: %d inter-well transits (%d settled), final basin %+d\n",
			bs.Transits, bs.SettledTransits, bs.FinalBasin)
	}
	fmt.Printf("energy: harvested %.4g J, to store %.4g J, load %.4g J, stored %+.4g J\n",
		h.Energy.Harvested, h.Energy.ToStore, h.Energy.Load,
		h.Energy.StoredT1-h.Energy.StoredT0)
	if h.MCU != nil {
		fmt.Printf("MCU: %d wakes, %d measurements, %d tuning runs, %d aborts\n",
			h.MCU.Stats.Wakes, h.MCU.Stats.Measures, h.MCU.Stats.Tunes, h.MCU.Stats.Aborts)
		fmt.Printf("final resonance: %.2f Hz (ambient %.2f Hz)\n",
			h.Cfg.Microgen.TunedHz(h.Act.ForceAt(sc.Duration)), h.Vib.Freq(sc.Duration))
	}
	if *plot {
		fmt.Println(trace.ASCIIPlot(h.VcTrace, 76, 10))
		rms := h.PMultIn.WindowedRMS(0.05, sc.Duration/200)
		if rms.Len() > 2 {
			fmt.Println(trace.ASCIIPlot(rms, 76, 10))
		}
	}
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *vcd, err)
			os.Exit(1)
		}
		if err := trace.WriteVCD(f, 1e-4, h.VcTrace, h.PMultIn, h.FresTrace); err != nil {
			fmt.Fprintf(os.Stderr, "write VCD: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote VCD to %s\n", *vcd)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *out, err)
			os.Exit(1)
		}
		defer f.Close()
		rows, err := trace.WriteCSV(f, h.VcTrace, h.PMultIn, h.FresTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "write CSV: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d rows to %s\n", rows, *out)
	}
}

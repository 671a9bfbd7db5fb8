package harvester

import (
	"math"
	"testing"

	"harvsim/internal/trace"
)

// FuzzScenarioConfig assembles and runs short full-system scenarios
// whose nonlinear-spring and stochastic-excitation knobs are derived
// from arbitrary bytes, and asserts the simulation contract: assembly
// either fails with an error (never a panic), and a successful run
// produces traces with non-decreasing time stamps, finite samples and
// finite energy accounting. Softening springs (K3 < 0) are generated
// too: they can make the device genuinely unstable, in which case the
// engine must report divergence as an error, not NaN-poisoned output.
// The multiplier's stage count is generated too, on both sides of
// [1, blocks.MaxDicksonStages]: a count outside it must fail assembly.
func FuzzScenarioConfig(f *testing.F) {
	const stageBias = 16 // operand 16's high byte minus this is the stage count
	f.Add([]byte{})
	f.Add([]byte("duffing-and-noise-seed-corpus-01"))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 77, 200, 13, 99, 1, 2, 3, 4})
	// Bistable activation (operands 10..14 high): deep double well with
	// strong coupling corrections riding band-limited noise.
	f.Add([]byte{
		40, 0, 100, 0, 60, 0, 0, 0, 200, 0, // duration/Vc/amp/K3/noise-gate
		20, 0, 180, 0, 40, 0, 8, 0, 200, 0, // fLo/rms/fHi/tones/seed
		220, 0, 160, 0, 140, 0, 255, 255, 10, 10, // bistable gate/well/barrier/xi1/xi2
	})
	// Multiplier sizes (operand 16, past every shorter seed and corpus
	// entry): 0 and 65 stages fail assembly, 7 run.
	for _, stages := range []byte{0, 65, 7} {
		seed := make([]byte, 34)
		copy(seed, []byte{40, 0, 100, 0, 60, 0})
		seed[32] = stageBias + stages
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Consume 16-bit operands; missing bytes read as zero so every
		// prefix is a valid input.
		word := func(i int) uint16 {
			var hi, lo byte
			if 2*i < len(data) {
				hi = data[2*i]
			}
			if 2*i+1 < len(data) {
				lo = data[2*i+1]
			}
			return uint16(hi)<<8 | uint16(lo)
		}
		frac := func(i int) float64 { return float64(word(i)) / 65535 }
		sc := ChargeScenario(0.03 + frac(0)*0.05)
		sc.Cfg.InitialVc = frac(1) * 4
		sc.Cfg.VibAmplitude = frac(2) * 1.5
		sc.Cfg.Microgen.K3 = (frac(3) - 0.2) * 5e9 // softening through strongly hardening
		if frac(10) > 0.6 {
			// Double-well reshape: overwrite the spring with the bistable
			// inversion (well 0.1..0.9 mm, barrier up to ~8 uJ) plus
			// displacement-dependent coupling corrections of either sign.
			// Zero-area wells (frac -> 0) degenerate to the knobs above.
			well := frac(11) * 9e-4
			barrier := frac(12) * 8e-6
			if well > 1e-4 && barrier > 0 {
				kl := -4 * barrier / (well * well)
				sc.Cfg.Microgen.K1 = kl - sc.Cfg.Microgen.Ks
				sc.Cfg.Microgen.K3 = 4 * barrier / (well * well * well * well)
				sc.Cfg.Microgen.Z0 = -well
				sc.Cfg.InitialTuneHz = sc.Cfg.Microgen.UntunedHz()
			}
			sc.Cfg.Microgen.Xi1 = (frac(13) - 0.5) * 400
			sc.Cfg.Microgen.Xi2 = (frac(14) - 0.5) * 1e5
		}
		if frac(4) > 0.25 { // three quarters of inputs add noise
			fLo := 0.5 + frac(5)*100
			sc.Cfg.VibNoise.RMS = frac(6) * 2
			sc.Cfg.VibNoise.FLo = fLo
			sc.Cfg.VibNoise.FHi = fLo + 0.2 + frac(7)*60
			sc.Cfg.VibNoise.Tones = 1 + int(frac(8)*63)
			sc.Cfg.VibNoise.Seed = uint64(frac(9) * 65535)
		}
		if w := word(16); w != 0 { // a zero operand keeps the default 5 stages
			sc.Cfg.Dickson.Stages = int(w>>8) - stageBias // −16 .. 239
		}

		h, err := Assemble(sc)
		if err != nil {
			return // graceful rejection is fine; a panic is the failure mode
		}
		if _, err := h.Run(Proposed, sc.Duration, 1); err != nil {
			return // divergence must surface as an error, which it did
		}
		for _, s := range []*trace.Series{h.VcTrace, h.PMultIn, h.PStoreTrace} {
			last := math.Inf(-1)
			for i := range s.Times {
				if s.Times[i] < last {
					t.Fatalf("%s: time stamps not monotone at sample %d: %g < %g",
						s.Name, i, s.Times[i], last)
				}
				last = s.Times[i]
				if math.IsNaN(s.Vals[i]) || math.IsInf(s.Vals[i], 0) {
					t.Fatalf("%s: non-finite sample %g at t=%g", s.Name, s.Vals[i], s.Times[i])
				}
			}
		}
		for _, e := range []float64{h.Energy.Harvested, h.Energy.ToStore, h.Energy.Load,
			h.Energy.StoredT0, h.Energy.StoredT1} {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("non-finite energy accounting: %+v", h.Energy)
			}
		}
	})
}

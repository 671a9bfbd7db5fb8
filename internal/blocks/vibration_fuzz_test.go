package blocks

import (
	"math"
	"testing"
)

// FuzzVibrationSchedule drives the vibration source through arbitrary
// byte-derived schedules — frequency steps, chirps, noise
// (re)configuration, resets, amplitude changes — and asserts the
// contract that the engines rely on: Accel/Freq/Phase stay finite and
// bounded for any in-contract schedule, the accumulated phase never
// runs backwards while the frequency is positive, Accel — memo hits
// included — returns the bits of the scalar reference loop, and no
// operation panics. The decoder maps raw bytes into the contract domain (times
// non-decreasing, bands ordered, finite values); out-of-contract calls
// are a documented panic and are not generated here.
func FuzzVibrationSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdefghij"))
	f.Add([]byte{0, 10, 0, 200, 0, 1, 50, 0, 100, 0, 2, 255, 255, 128, 7, 3, 9, 0, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 1, 2, 1, 1, 1, 1, 4, 200, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := NewVibration(0.59, 70)
		tCur := 0.0
		maxRMS := 0.0
		// frac maps a 16-bit operand into [0, 1].
		frac := func(hi, lo byte) float64 { return float64(uint16(hi)<<8|uint16(lo)) / 65535 }
		for len(data) >= 5 {
			op, a, b := data[0]%5, frac(data[1], data[2]), frac(data[3], data[4])
			data = data[5:]
			switch op {
			case 0:
				tCur += a * 2
				v.SetFrequency(tCur, 1+b*200)
			case 1:
				start := tCur + a*2
				dur := b * 3
				v.Sweep(start, dur, 1+a*150)
				tCur = start + dur
			case 2:
				fLo := 1 + b*100
				spec := NoiseSpec{
					RMS:   a * 3,
					FLo:   fLo,
					FHi:   fLo + 0.5 + a*100,
					Tones: int(b*95) + 1,
					Seed:  uint64(a*65535)<<16 | uint64(b*65535),
				}
				v.ConfigureNoise(spec)
				if spec.Enabled() && spec.RMS > maxRMS {
					maxRMS = spec.RMS
				}
				if !spec.Enabled() {
					maxRMS = 0
				}
			case 3:
				v.Reset(1 + a*100)
				tCur = 0
				maxRMS = 0
			case 4:
				v.Amplitude = a * 2
			}
		}
		// |a(t)| is bounded by the sinusoid peak plus the coherent worst
		// case of the noise tones (RMS * sqrt(2*Tones), Tones <= 96).
		bound := math.Abs(v.Amplitude) + maxRMS*math.Sqrt(2*96) + 1
		lastPhase := math.Inf(-1)
		for i := 0; i <= 400; i++ {
			tm := tCur * float64(i) / 400
			acc, fr, ph := v.Accel(tm), v.Freq(tm), v.Phase(tm)
			if math.IsNaN(acc) || math.IsInf(acc, 0) || math.Abs(acc) > bound {
				t.Fatalf("Accel(%g) = %g out of bound %g", tm, acc, bound)
			}
			ref := toneSumRef(v.toneW, v.tonePhi, v.toneAmp, tm, v.Amplitude*math.Sin(ph))
			if again := v.Accel(tm); !sameBits(acc, ref) || !sameBits(again, ref) {
				t.Fatalf("Accel(%g) = %v, then %v from the memo; reference loop %v", tm, acc, again, ref)
			}
			if math.IsNaN(fr) || math.IsInf(fr, 0) || fr <= 0 {
				t.Fatalf("Freq(%g) = %g, want finite positive", tm, fr)
			}
			if math.IsNaN(ph) || math.IsInf(ph, 0) {
				t.Fatalf("Phase(%g) = %g", tm, ph)
			}
			if ph < lastPhase {
				t.Fatalf("phase ran backwards at t=%g: %g < %g", tm, ph, lastPhase)
			}
			lastPhase = ph
		}
	})
}

package blocks

import (
	"math"
	"math/rand/v2"
	"testing"
)

// toneCase draws n tones the way ConfigureNoise lays them out over a
// band, with amplitudes of either sign so cancellations are exercised.
func toneCase(rng *rand.Rand, n int) (w, phi, amp []float64) {
	w, phi, amp = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		w[i] = 2 * math.Pi * (1 + 400*rng.Float64())
		phi[i] = 2 * math.Pi * rng.Float64()
		amp[i] = rng.NormFloat64()
	}
	return w, phi, amp
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

var negZero = math.Copysign(0, -1)

// TestToneSumMatchesReference pins the kernel contract: toneSum returns
// the reference loop's bits for every tone count (groups of four plus
// every tail length) and every class of t, including the ones that make
// the kernel hand over to the reference loop.
func TestToneSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 4))
	ts := []float64{0, negZero, -0.37, -1234.5, 1e-300, 1e7,
		1 << 27, math.NaN(), math.Inf(1), math.Inf(-1)}
	for range 32 {
		ts = append(ts, 100*rng.Float64())
	}
	for _, n := range []int{0, 1, 3, 4, 5, 48, 1023, 1024, 4096} {
		w, phi, amp := toneCase(rng, n)
		for _, tm := range ts {
			for _, a0 := range []float64{0, -0.8} {
				got := toneSum(w, phi, amp, tm, a0)
				want := toneSumRef(w, phi, amp, tm, a0)
				if !sameBits(got, want) {
					t.Fatalf("n=%d t=%g a0=%g: toneSum %v (%#x) != reference %v (%#x)",
						n, tm, a0, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestToneSumHandover puts one out-of-domain lane (|w·t| ≥ 2²⁹, a zero
// argument) at every position of a 13-tone set: the kernel must stop
// before that lane's group and the reference loop finish the sum with
// unchanged bits.
func TestToneSumHandover(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	const n, tm = 13, 3.25
	for _, bad := range []struct{ w, phi float64 }{
		{1 << 30, 0.5},      // needs Payne-Hanek reduction
		{0, 1 << 29},        // x exactly at the limit
		{0, -(1 << 29)},     // and at minus the limit
		{0, 0},              // x = +0
		{negZero, negZero},  // x = -0
		{math.NaN(), 0},     // x = NaN
		{math.Inf(-1), 0.5}, // x = -Inf
	} {
		for pos := range n {
			w, phi, amp := toneCase(rng, n)
			w[pos], phi[pos] = bad.w, bad.phi
			got, want := toneSum(w, phi, amp, tm, 0.1), toneSumRef(w, phi, amp, tm, 0.1)
			if !sameBits(got, want) {
				t.Fatalf("bad lane %+v at %d: toneSum %v != reference %v", bad, pos, got, want)
			}
			if _, done := toneSumKernel(w, phi, amp, tm, 0.1); done > pos {
				t.Fatalf("bad lane %+v at %d: kernel summed %d tones past it", bad, pos, done)
			}
		}
	}
}

// TestAccelMemoTracksAmplitude pins the memo key: writing Amplitude
// between two Accel calls at the same t must return the new value.
func TestAccelMemoTracksAmplitude(t *testing.T) {
	v := NewVibration(1, 50)
	v.ConfigureNoise(NoiseSpec{RMS: 0.5, FLo: 20, FHi: 80, Tones: 9, Seed: 4})
	const tm = 0.3
	a1 := v.Accel(tm)
	v.Amplitude = 2
	a2 := v.Accel(tm)
	want := toneSumRef(v.toneW, v.tonePhi, v.toneAmp, tm, 2*math.Sin(v.Phase(tm)))
	if !sameBits(a2, want) || sameBits(a1, a2) {
		t.Fatalf("Accel after Amplitude write = %v (before %v), want %v", a2, a1, want)
	}
	// A zero amplitude of the other sign is a different key too.
	v.Amplitude = 0
	v.ConfigureNoise(NoiseSpec{})
	pz := v.Accel(tm)
	v.Amplitude = negZero
	if nz := v.Accel(tm); sameBits(pz, nz) {
		t.Fatalf("Accel with Amplitude -0 served the +0 memo (%v)", nz)
	}
}

// BenchmarkToneSum1024 and BenchmarkToneSumRef1024 time one 1024-tone
// sum (the ensemble benchmark's tone count) through toneSum and through
// the reference loop.
func BenchmarkToneSum1024(b *testing.B)    { benchToneSum(b, toneSum) }
func BenchmarkToneSumRef1024(b *testing.B) { benchToneSum(b, toneSumRef) }

func benchToneSum(b *testing.B, sum func(w, phi, amp []float64, t, a float64) float64) {
	w, phi, amp := toneCase(rand.New(rand.NewPCG(1, 2)), 1024)
	var s float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s += sum(w, phi, amp, float64(i)*1e-5, 0)
	}
	toneSumSink = s
}

var toneSumSink float64

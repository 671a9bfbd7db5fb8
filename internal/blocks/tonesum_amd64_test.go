package blocks

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestToneSumKernelPerLaneSine checks the kernel's sine lane by lane:
// with a one-hot amplitude vector the sum is exactly that lane's sine,
// so any rounding difference shows, not just one that survives a sum.
// The arguments cover every octant and sign, magnitudes from subnormal
// to just under 2²⁹, and points next to multiples of π/4 where the
// octant rounding decides.
func TestToneSumKernelPerLaneSine(t *testing.T) {
	if !useAVX2 {
		t.Skip("tone-sum kernel not available on this host")
	}
	rng := rand.New(rand.NewPCG(29, 1))
	var xs []float64
	for range 1 << 14 {
		mag := math.Exp2(-1074 + 1102*rng.Float64()) // up to 2^28
		if rng.IntN(2) == 0 {
			mag = -mag
		}
		xs = append(xs, mag)
	}
	for k := 1; k < 4096; k += 7 {
		c := float64(k) * math.Pi / 4
		xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)), -c)
	}
	xs = append(xs, math.Nextafter(1<<29, 0), -math.Nextafter(1<<29, 0), 5e-324, -5e-324)
	for len(xs)%4 != 0 {
		xs = append(xs, 1)
	}
	phi := make([]float64, 4)
	for g := 0; g < len(xs); g += 4 {
		w := xs[g : g+4]
		for lane := range 4 {
			amp := make([]float64, 4)
			amp[lane] = 1
			got, done := toneSumKernel(w, phi, amp, 1, 0)
			if done != 4 {
				t.Fatalf("kernel declined the in-domain group %v", w)
			}
			if want := math.Sin(w[lane]); !sameBits(got, want) {
				t.Fatalf("sin(%v): kernel %v (%#x), math.Sin %v (%#x)",
					w[lane], got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestToneSumKernelTakesGroups guards the dispatch itself: on an AVX2
// host the kernel must take every whole group of in-domain tones, or the
// bit-exact tests above would only be testing the reference loop.
func TestToneSumKernelTakesGroups(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{0, 3, 4, 5, 1023} {
		w, phi, amp := toneCase(rng, n)
		_, done := toneSumKernel(w, phi, amp, 2.5, 0)
		want := 0
		if useAVX2 {
			want = n &^ 3
		}
		if done != want {
			t.Fatalf("n=%d: kernel summed %d tones, want %d (avx2=%v)", n, done, want, useAVX2)
		}
	}
}

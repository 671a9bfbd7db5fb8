package blocks

import "math"

// The AVX2 tone-sum kernel (tonesum_amd64.s) evaluates four tones per
// instruction and returns exactly the bits of the reference loop
// a += amp·math.Sin(w·t+phi). It can, because math.Sin is pure Go on
// amd64 and the compiler neither fuses nor reorders float64 arithmetic
// there: every step of the reference is one IEEE-rounded SSE2
// operation, and the kernel performs the same operations, per lane, in
// the same order — so every rounding, and with it every lane's result,
// matches the reference bit for bit. Concretely, per lane:
//
//   - x = w·t + phi, two roundings (multiply, then add);
//   - math.sin's small-argument branch, replicated: j = trunc(|x|·4/π),
//     rounded up to even; z = ((|x| − j·PI4A) − j·PI4B) − j·PI4C;
//     both Cephes polynomials in zz = z·z, evaluated as math.sin
//     parenthesises them; the cosine one where bit 1 of j is set, the
//     sine one elsewhere; the sign of x flipped when bit 2 of j is set
//     (a sign-bit XOR, like Go's float negation);
//   - p = amp·sin, then a += p one lane at a time in index order, so
//     the accumulation order never changes. No FMA is used anywhere.
//
// The kernel takes a lane only when 0 < |x| < 2²⁹: exactly the inputs
// for which math.sin runs the branch above. Zeros, NaN, ±Inf and
// arguments that need Payne–Hanek reduction stop it before the group
// that holds them, and toneSum hands the rest to the reference loop.

// useAVX2 reports whether the host can run the kernel: CPUID advertises
// AVX and AVX2, and the OS saves the YMM state (OSXSAVE, XCR0 bits 1-2).
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// Implemented in tonesum_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// toneSumAVX2 adds the tones' products to a four at a time, stopping at
// the first group of four with a lane it does not take or when fewer
// than four tones remain. It returns the sum so far and the number of
// tones it summed, always a multiple of four.
//
//go:noescape
func toneSumAVX2(w, phi, amp []float64, t, a float64) (sum float64, done int)

func toneSumKernel(w, phi, amp []float64, t, a float64) (float64, int) {
	if !useAVX2 || len(w) < 4 {
		return a, 0
	}
	return toneSumAVX2(w, phi, amp, t, a)
}

// toneConsts holds the kernel's constants, each repeated across the four
// lanes of a YMM operand; the order matches the K_* offsets in
// tonesum_amd64.s. The values are math.sin's, written with the same
// decimal literals (hence the same bits): the argument limit of its
// Cody–Waite branch, 4/π, π/4 split into three parts, and the Cephes
// sine and cosine coefficients.
var toneConsts = [...][4]float64{
	lanes(1 << 29),
	lanes(4 / math.Pi),
	lanes(7.85398125648498535156e-1),   // PI4A 0x3fe921fb40000000
	lanes(3.77489470793079817668e-8),   // PI4B 0x3e64442d00000000
	lanes(2.69515142907905952645e-15),  // PI4C 0x3ce8469898cc5170
	lanes(1.58962301576546568060e-10),  // sin 0x3de5d8fd1fd19ccd
	lanes(-2.50507477628578072866e-8),  // sin 0xbe5ae5e5a9291f5d
	lanes(2.75573136213857245213e-6),   // sin 0x3ec71de3567d48a1
	lanes(-1.98412698295895385996e-4),  // sin 0xbf2a01a019bfdf03
	lanes(8.33333333332211858878e-3),   // sin 0x3f8111111110f7d0
	lanes(-1.66666666666666307295e-1),  // sin 0xbfc5555555555548
	lanes(-1.13585365213876817300e-11), // cos 0xbda8fa49a0861a9b
	lanes(2.08757008419747316778e-9),   // cos 0x3e21ee9d7b4e3f05
	lanes(-2.75573141792967388112e-7),  // cos 0xbe927e4f7eac4bc6
	lanes(2.48015872888517045348e-5),   // cos 0x3efa01a019c844f5
	lanes(-1.38888888888730564116e-3),  // cos 0xbf56c16c16c14f91
	lanes(4.16666666666665929218e-2),   // cos 0x3fa555555555554b
	lanes(0.5),
	lanes(1),
}

func lanes(x float64) [4]float64 { return [4]float64{x, x, x, x} }

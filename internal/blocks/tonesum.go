package blocks

import "math"

// toneSum returns a + Σ amp[i]·sin(w[i]·t + phi[i]), added in index
// order. It is the stochastic half of Vibration.Accel and, at the tone
// counts wideband ensembles use, most of an engine step's cost.
//
// Contract: the result is bit-identical to toneSumRef on every input.
// toneSumKernel (an AVX2 kernel on amd64 hosts that have it, nothing
// elsewhere) takes the tones it can in groups of four and reports how
// many it summed; the reference loop finishes the rest — the n mod 4
// tail, and everything from the first group with a lane outside the
// kernel's domain (see tonesum_amd64.go).
func toneSum(w, phi, amp []float64, t, a float64) float64 {
	// The kernel reads len(w) elements of every column unchecked.
	phi, amp = phi[:len(w)], amp[:len(w)]
	a, done := toneSumKernel(w, phi, amp, t, a)
	return toneSumRef(w[done:], phi[done:], amp[done:], t, a)
}

// toneSumRef is the reference definition of the tone sum: the scalar
// loop the kernel reproduces bit for bit, and the path every case the
// kernel does not take falls back to.
func toneSumRef(w, phi, amp []float64, t, a float64) float64 {
	phi, amp = phi[:len(w)], amp[:len(w)]
	for i := range w {
		a += amp[i] * math.Sin(w[i]*t+phi[i])
	}
	return a
}

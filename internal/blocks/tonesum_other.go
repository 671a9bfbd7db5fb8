//go:build !amd64

package blocks

// toneSumKernel takes no tones off amd64: toneSum runs the reference
// loop over all of them.
func toneSumKernel(w, phi, amp []float64, t, a float64) (float64, int) { return a, 0 }

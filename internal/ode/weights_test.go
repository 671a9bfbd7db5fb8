package ode

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: weight %d = %v (%x), ABCoeffs %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkCoeffs looks (times, h) up in tab and requires ABCoeffs' bits for
// both orders; it returns whether the table hit.
func checkCoeffs(t *testing.T, tab *WeightTable, times []float64, h float64) bool {
	t.Helper()
	p := len(times)
	dstP, dstL := make([]float64, p), make([]float64, p-1)
	hit := tab.Coeffs(dstP, dstL, times, h)
	sameBits(t, "order p", dstP, ABCoeffs(make([]float64, p), times, h))
	if p > 1 {
		sameBits(t, "order p-1", dstL, ABCoeffs(make([]float64, p-1), times[:p-1], h))
	}
	return hit
}

// historyOf returns p abscissae newest first, the newest at t with
// steps drawn around h.
func historyOf(rng *rand.Rand, p int, t, h float64) []float64 {
	times := make([]float64, p)
	times[0] = t
	for i := 1; i < p; i++ {
		times[i] = times[i-1] - h*(0.5+rng.Float64())
	}
	return times
}

// TestWeightTableMatchesABCoeffs: for orders 1-4 the table returns
// ABCoeffs' bits on first sight and on every repeat, where it hits —
// including a repeat at another t whose offsets round to the same bits.
func TestWeightTableMatchesABCoeffs(t *testing.T) {
	var tab WeightTable
	rng := rand.New(rand.NewSource(11))
	for p := 1; p <= MaxABOrder; p++ {
		for k := 0; k < 50; k++ {
			h := math.Pow(10, -2-6*rng.Float64())
			times := historyOf(rng, p, rng.Float64()*30, h)
			if checkCoeffs(t, &tab, times, h) {
				t.Fatalf("order %d: first sight of a random key hit", p)
			}
			if !checkCoeffs(t, &tab, times, h) {
				t.Fatalf("order %d: repeat missed", p)
			}
		}
	}
	// A uniform history shifted by a power of two keeps its offsets'
	// bits: the same entry serves it.
	times := []float64{1, 1 - 0x1p-12, 1 - 0x1p-11, 1 - 3*0x1p-12}
	checkCoeffs(t, &tab, times, 0x1p-12)
	shifted := []float64{2, 2 - 0x1p-12, 2 - 0x1p-11, 2 - 3*0x1p-12}
	if !checkCoeffs(t, &tab, shifted, 0x1p-12) {
		t.Fatal("equal offsets at another t missed")
	}
	// One ulp of h or of an offset is another key.
	if checkCoeffs(t, &tab, times, math.Nextafter(0x1p-12, 1)) {
		t.Fatal("h one ulp off hit")
	}
	times[3] = math.Nextafter(times[3], 0)
	if checkCoeffs(t, &tab, times, 0x1p-12) {
		t.Fatal("an offset one ulp off hit")
	}
}

// TestWeightTableVerifiesKeyBits: two keys whose hashes are equal in all
// 64 bits (constructed through weightHash's FNV-1a steps) share a probe
// start, and each still gets its own weights: a hit is verified on the
// stored key bits, not on the hash.
func TestWeightTableVerifiesKeyBits(t *testing.T) {
	const prime = 0x100000001b3
	h := 1e-4
	a := []float64{0, -1e-4, -2e-4}
	ka := weightKey(a, h)
	// Change h, then pick the last offset so that the FNV state after
	// the offsets is the same as a's: the two hashes then agree.
	h2 := 2e-4
	kb := ka
	kb[1] = math.Float64bits(h2)
	st := func(k [weightKeyLen]uint64, upto int) uint64 {
		s := uint64(0xcbf29ce484222325)
		for _, w := range k[:upto] {
			s = (s ^ w) * prime
		}
		return s
	}
	// States before word 4 (offset 2): a's and b's differ; choose b's
	// word 4 so that (state ^ word) matches.
	kb[4] = st(ka, 4) ^ st(kb, 4) ^ ka[4]
	b := []float64{0, -1e-4, math.Float64frombits(kb[4])}
	if weightKey(b, h2) != kb {
		t.Fatal("test premise broken: constructed key does not round-trip")
	}
	if weightHash(&ka) != weightHash(&kb) || ka == kb {
		t.Fatal("test premise broken: keys do not collide")
	}
	var tab WeightTable
	checkCoeffs(t, &tab, a, h)
	if checkCoeffs(t, &tab, b, h2) {
		t.Fatal("a key with another key's hash hit")
	}
	if !checkCoeffs(t, &tab, a, h) || !checkCoeffs(t, &tab, b, h2) {
		t.Fatal("colliding keys do not both hit on repeat")
	}
}

// TestWeightTableSlotCollisions: keys that start probing at one slot all
// keep their own weights, and all hit on repeat.
func TestWeightTableSlotCollisions(t *testing.T) {
	var tab WeightTable
	rng := rand.New(rand.NewSource(13))
	var slot0 = -1
	var keys [][]float64
	var hs []float64
	for len(keys) < 8 {
		h := math.Pow(10, -3-3*rng.Float64())
		times := historyOf(rng, 4, rng.Float64(), h)
		k := weightKey(times, h)
		s := int(weightHash(&k) >> (64 - weightSlotBits))
		if slot0 < 0 {
			slot0 = s
		}
		if s == slot0 {
			keys = append(keys, times)
			hs = append(hs, h)
		}
	}
	for i := range keys {
		if checkCoeffs(t, &tab, keys[i], hs[i]) {
			t.Fatalf("key %d: first sight hit", i)
		}
	}
	for i := range keys {
		if !checkCoeffs(t, &tab, keys[i], hs[i]) {
			t.Fatalf("key %d: repeat missed", i)
		}
	}
}

// TestWeightTableFillLimit: the table empties when a store would exceed
// weightFill entries, and keeps returning ABCoeffs' bits across it.
func TestWeightTableFillLimit(t *testing.T) {
	var tab WeightTable
	rng := rand.New(rand.NewSource(17))
	first := historyOf(rng, 3, 0.5, 1e-4)
	checkCoeffs(t, &tab, first, 1e-4)
	for i := 1; i < weightFill; i++ {
		h := 1e-4 * (1 + float64(i)/weightSlots) // one key per order-1 store too
		checkCoeffs(t, &tab, historyOf(rng, 1+i%MaxABOrder, rng.Float64(), h), h)
	}
	if tab.n != weightFill {
		t.Fatalf("%d entries after %d distinct keys, want %d", tab.n, weightFill, weightFill)
	}
	if !checkCoeffs(t, &tab, first, 1e-4) {
		t.Fatal("the first key was dropped before the table filled")
	}
	checkCoeffs(t, &tab, historyOf(rng, 4, 0.25, 3e-4), 3e-4)
	if tab.n != 1 {
		t.Fatalf("%d entries after the store past the fill limit, want 1", tab.n)
	}
	if checkCoeffs(t, &tab, first, 1e-4) {
		t.Fatal("an entry survived the emptying")
	}
	tab.Empty()
	if tab.n != 0 || checkCoeffs(t, &tab, first, 1e-4) {
		t.Fatal("Empty kept an entry")
	}
}

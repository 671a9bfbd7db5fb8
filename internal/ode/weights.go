package ode

import "math"

// The weight table's shape. Unlike the stability memo's constants these
// do not define results: every entry holds the exact bits ABCoeffs
// returns for its key, for all time, so a table of any size (or none)
// yields the same weights and only the hit rate changes.
const (
	// weightSlotBits sizes the open-addressing table: weightSlots slots.
	weightSlotBits = 9
	weightSlots    = 1 << weightSlotBits
	// weightFill is the entry count at which the table empties before
	// its next store. Below it a probe always reaches a free slot.
	weightFill = weightSlots * 3 / 4
	// weightKeyLen is the words of a key: the order, the bits of h and
	// the bits of the MaxABOrder history offsets (unused ones zero).
	weightKeyLen = 2 + MaxABOrder
)

// WeightTable serves variable-step Adams-Bashforth weights by key.
// ABCoeffs is a pure function of the order p, the step h and the
// history offsets times[i]-times[0]. When the stability cap holds the
// step, h repeats, and the history abscissae, being h rounded to the
// ulp grid of t, repeat their offsets too; the table then returns the
// stored weights instead of rebuilding the Lagrange integrals.
//
// Each entry holds the weights of order p and of the embedded order
// p-1 for one key. A hit is verified against the stored key bits, never
// by hash alone. The zero value is an empty table; a table is ~60 KB,
// so callers pool it rather than allocate one per run.
type WeightTable struct {
	n    int // entries stored
	live [weightSlots]bool
	hash [weightSlots]uint64
	keys [weightSlots][weightKeyLen]uint64
	w    [weightSlots][2*MaxABOrder - 1]float64 // order p, then order p-1
}

// Empty drops every entry.
func (t *WeightTable) Empty() {
	clear(t.live[:])
	t.n = 0
}

// weightKey returns the key words of (times, h): the order, the bits of
// h and the bits of the offsets times[i]-times[0] ABCoeffs computes.
func weightKey(times []float64, h float64) (key [weightKeyLen]uint64) {
	key[0] = uint64(len(times))
	key[1] = math.Float64bits(h)
	for i := range times {
		key[2+i] = math.Float64bits(times[i] - times[0])
	}
	return key
}

// weightHash hashes a key (FNV-1a over words; the slot comes from the
// top bits, which every word's bits reach).
func weightHash(key *[weightKeyLen]uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, w := range key {
		h = (h ^ w) * 0x100000001b3
	}
	return h
}

// Coeffs writes ABCoeffs(dstP, times, h) into dstP and, for an order
// p = len(times) above 1, ABCoeffs(dstL, times[:p-1], h) into dstL (the
// embedded lower-order weights), bit for bit. It reports whether the
// table already held them. dstL must have length p-1.
func (t *WeightTable) Coeffs(dstP, dstL, times []float64, h float64) (hit bool) {
	p := len(times)
	if p == 0 || p > MaxABOrder || len(dstP) != p || len(dstL) != p-1 {
		panic("ode: WeightTable.Coeffs order or length mismatch")
	}
	key := weightKey(times, h)
	hash := weightHash(&key)
	slot := int(hash >> (64 - weightSlotBits))
	for ; t.live[slot]; slot = (slot + 1) & (weightSlots - 1) {
		if t.hash[slot] == hash && t.keys[slot] == key {
			w := &t.w[slot]
			copy(dstP, w[:p])
			copy(dstL, w[p:2*p-1])
			return true
		}
	}
	var s [MaxABOrder]float64
	for i := range s[:p] {
		s[i] = math.Float64frombits(key[2+i])
	}
	abWeights(dstP, s[:p], h)
	if p > 1 {
		abWeights(dstL, s[:p-1], h)
	}
	if t.n == weightFill {
		t.Empty()
		slot = int(hash >> (64 - weightSlotBits))
	}
	t.live[slot] = true
	t.hash[slot] = hash
	t.keys[slot] = key
	copy(t.w[slot][:p], dstP)
	copy(t.w[slot][p:], dstL)
	t.n++
	return false
}

package core

import (
	"math"
	"slices"
	"sync"

	"harvsim/internal/ode"
)

// The stability memo's table shape. These constants define results, not
// only speed: an entry that misses again after the table emptied is
// recomputed under the balancing scales in force then. Changing either
// moves result bits and needs a batch.CacheSchemaVersion bump, which is
// why they are not options. Nothing sizes the key: it is the run's whole
// varying set. On the default 5-stage multiplier, Table II scenarios 1
// and 2 vary 28 entries, a bistable run 27, a Duffing-noise run 25 and
// the Table I charge 24; a charge through n stages varies 5n−1.
const (
	// memoSlotBits sizes the open-addressing table: memoSlots slots.
	memoSlotBits = 8
	memoSlots    = 1 << memoSlotBits
	// memoFill is the entry count at which the table empties before its
	// next store. Below it a probe always reaches a free slot.
	memoFill = memoSlots * 3 / 4
)

// stabMemo maps the Jacobians a run has met to the step caps their
// stability analysis found, so a run that returns to a Jacobian (a
// diode crossing the same knee segments every vibration period) reuses
// the caps instead of re-solving K and forming, balancing and bounding
// the reduced matrix.
//
// A key is the bits of the run's varying entries (jacobian.vary), in the
// varying set's order; every other entry holds the bits it had when
// the set was last cleared, so equal keys mean bit-equal Jacobians. A
// hit is verified against the stored key bits, never by hash alone. The
// caps a hit returns are those computed the first time, under the
// balancing scales in force then; a positive diagonal similarity keeps
// the eigenvalues, so they bound the same reduced matrix (paper Eq. 7).
type stabMemo struct {
	width int // key words per entry: the varying-set size the keys were taken at
	n     int // entries stored

	live [memoSlots]bool
	hash [memoSlots]uint64
	caps [memoSlots][2]float64 // hRealFE, rhoOsc
	// keys holds slot i's key at words [i·width, (i+1)·width), and the
	// key being looked up in the slot past the table. It grows to fit
	// the widest varying set the memo has met and never shrinks.
	keys []uint64

	// weights serves the run's Adams-Bashforth weights. It rides in the
	// memo so that the same recycling spares every run its ~60 KB; its
	// entries are exact for all time, and Begin empties it only so that
	// Stats.WeightsReused counts the run's own repeats.
	weights ode.WeightTable
}

// empty drops every entry; the keys stored next are width words long.
// A memo recycled across runs allocates only when it first meets a
// varying set wider than any before.
func (m *stabMemo) empty(width int) {
	clear(m.live[:])
	m.n = 0
	m.width = width
	if need := (memoSlots + 1) * width; len(m.keys) < need {
		m.keys = make([]uint64, need)
	}
}

// keyOf gathers the bits of data's entries at vary (m.width of them)
// into the memo's key and hashes them (FNV-1a over words; find
// takes the slot from the top bits, which every word's bits reach).
func (m *stabMemo) keyOf(data []float64, vary []int) (key []uint64, h uint64) {
	key = m.keys[memoSlots*m.width:][:m.width]
	h = 0xcbf29ce484222325
	for i, idx := range vary {
		w := math.Float64bits(data[idx])
		key[i] = w
		h = (h ^ w) * 0x100000001b3
	}
	return key, h
}

// find returns the slot holding key and true, or the free slot a store
// of key should fill and false.
func (m *stabMemo) find(key []uint64, h uint64) (slot int, hit bool) {
	slot = int(h >> (64 - memoSlotBits))
	for ; m.live[slot]; slot = (slot + 1) & (memoSlots - 1) {
		if m.hash[slot] == h && slices.Equal(m.keys[slot*m.width:][:m.width], key) {
			return slot, true
		}
	}
	return slot, false
}

// store records the caps of key at the free slot find returned,
// emptying the table first when it holds memoFill entries.
func (m *stabMemo) store(slot int, key []uint64, h uint64, hReal, rho float64) {
	if m.n == memoFill {
		m.empty(m.width)
		slot = int(h >> (64 - memoSlotBits))
	}
	m.live[slot] = true
	m.hash[slot] = h
	m.caps[slot] = [2]float64{hReal, rho}
	copy(m.keys[slot*m.width:], key)
	m.n++
}

// memoStore recycles stability memos process-wide, in the spirit of
// pwl's process-wide table store. A memo is ~115 KB at 5 stages and
// ~165 KB at 10, and its keys keep the widest size it has met (~0.66 MB
// after a run at blocks.MaxDicksonStages). Callers such as a batch run
// with a fresh workspace pool per job would otherwise allocate one per
// run; a sync.Pool would drop them at every GC. The free list holds at
// most as many memos as engines ever ran at once.
var memoStore struct {
	mu   sync.Mutex
	free []*stabMemo
}

// takeMemo returns a recycled memo, or a new one when none is free. Its
// entries are stale until the engine's first refresh empties it.
func takeMemo() *stabMemo {
	memoStore.mu.Lock()
	defer memoStore.mu.Unlock()
	n := len(memoStore.free)
	if n == 0 {
		return new(stabMemo)
	}
	m := memoStore.free[n-1]
	memoStore.free[n-1] = nil
	memoStore.free = memoStore.free[:n-1]
	return m
}

// putMemo hands a memo back for the next takeMemo.
func putMemo(m *stabMemo) {
	memoStore.mu.Lock()
	memoStore.free = append(memoStore.free, m)
	memoStore.mu.Unlock()
}

package core

import (
	"math"
	"slices"
	"testing"
)

// memoRig is an engine on a shapeBlock system whose Jacobian the test
// writes entry by entry, running one stability analysis per write.
type memoRig struct {
	t  *testing.T
	s  *System
	e  *Engine
	st Stamp
}

// newMemoRig stamps a stable nx-state Jxx (diagonal −(i+2), unit
// couplings), an identity Jyy and small couplings, then begins a run, so
// the first refresh takes that Jacobian as the run's base.
func newMemoRig(t *testing.T, nx, ny int) *memoRig {
	t.Helper()
	s := NewSystem()
	s.AddBlock(&shapeBlock{nx, ny})
	s.MustBuild()
	r := &memoRig{t: t, s: s, e: NewEngine(s), st: Stamp{sys: s, blk: 0}}
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			v := 1.0
			if i == j {
				v = -float64(i + 2)
			}
			r.st.A(i, j, v)
		}
		for k := 0; k < ny; k++ {
			r.st.B(i, k, 0.5)
			r.st.C(k, i, 0.25)
		}
	}
	for k := 0; k < ny; k++ {
		r.st.D(k, k, 1)
	}
	if err := r.e.Begin(0, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.e.Reset() })
	return r
}

// analyse writes the Jxx entries (i, j) = v given as triples, refreshes
// and runs one stability analysis, and reports whether the memo served
// it.
func (r *memoRig) analyse(writes ...float64) (reused bool) {
	r.t.Helper()
	for k := 0; k+2 < len(writes); k += 3 {
		r.st.A(int(writes[k]), int(writes[k+1]), writes[k+2])
	}
	before := r.e.Stats.StabilityReused
	r.e.sinceStab = 63 // the next refresh runs the analysis
	if _, err := r.e.refresh(false); err != nil {
		r.t.Fatal(err)
	}
	return r.e.Stats.StabilityReused > before
}

// caps returns the bits of the caps the last analysis set.
func (r *memoRig) caps() [2]uint64 {
	return [2]uint64{math.Float64bits(r.e.hRealFE), math.Float64bits(r.e.rhoOsc)}
}

// TestStabilityMemoMisses: a Jacobian that differs from every one the
// run has met in any bit of any entry is analysed afresh — by one ulp,
// by the sign of a zero, by a NaN payload, or by an entry that starts to
// vary — and a bit-equal one is served from the memo.
func TestStabilityMemoMisses(t *testing.T) {
	r := newMemoRig(t, 3, 2)
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	steps := []struct {
		name   string
		writes []float64
		reused bool
	}{
		{"entry (0,1) starts to vary", []float64{0, 1, 3}, false},
		{"same Jacobian, entry rewritten", []float64{0, 1, 3}, true},
		{"one ulp up", []float64{0, 1, math.Nextafter(3, 4)}, false},
		{"back to the first", []float64{0, 1, 3}, true},
		{"one ulp up again", []float64{0, 1, math.Nextafter(3, 4)}, true},
		{"(1,2) set to +0: starts to vary", []float64{0, 1, 3, 1, 2, 0}, false},
		{"(1,2) to −0", []float64{1, 2, negZero}, false},
		{"(1,2) back to +0", []float64{1, 2, 0}, true},
		{"(2,0) NaN: starts to vary", []float64{2, 0, nan1}, false},
		{"same NaN", []float64{2, 0, nan1}, true},
		{"other NaN payload", []float64{2, 0, nan2}, false},
		{"first NaN again", []float64{2, 0, nan1}, true},
		{"(2,0) back to its base value", []float64{2, 0, 1}, false},
		{"(1,0) to −0 from +1: starts to vary", []float64{1, 0, negZero}, false},
	}
	for _, s := range steps {
		if got := r.analyse(s.writes...); got != s.reused {
			t.Fatalf("%s: reused %v, want %v", s.name, got, s.reused)
		}
	}
}

// TestStabilityMemoSignedZeroStartsToVary: an entry whose first change
// is from +0 to −0 joins the key, so the Jacobian misses instead of
// taking the caps of the one with +0.
func TestStabilityMemoSignedZeroStartsToVary(t *testing.T) {
	r := newMemoRig(t, 3, 2)
	r.st.B(0, 1, 0) // a +0 coupling in the base Jacobian
	if _, err := r.e.refresh(true); err != nil {
		t.Fatal(err)
	}
	if r.analyse(0, 1, 3) {
		t.Fatal("first sight of (0,1) = 3 reused")
	}
	if !r.analyse() {
		t.Fatal("unchanged Jacobian missed")
	}
	r.st.B(0, 1, math.Copysign(0, -1))
	if r.analyse() {
		t.Fatal("Jacobian differing by the sign of a zero was served from the memo")
	}
	if n := len(r.s.jac.vary); n != 2 {
		t.Fatalf("varying set holds %d entries, want 2", n)
	}
}

// TestStabilityMemoFirstSightCaps: a repeated Jacobian gets the caps
// computed when the run first met it, even after the balancing scales
// were recomputed, and a reused analysis does not age the scales.
func TestStabilityMemoFirstSightCaps(t *testing.T) {
	r := newMemoRig(t, 3, 2)
	if r.analyse(0, 1, 40) {
		t.Fatal("first sight reused")
	}
	first := r.caps()
	scales := slices.Clone(r.e.dScale)
	// Enough distinct Jacobians to recompute the scales at least once,
	// with (0,1) spanning decades so they change.
	for k := 1; k <= 20; k++ {
		if r.analyse(0, 1, 40*math.Pow(4, float64(k%5)+1)+float64(k)) {
			t.Fatalf("distinct Jacobian %d reused", k)
		}
	}
	if slices.Equal(scales, r.e.dScale) {
		t.Fatal("test premise broken: the balancing scales did not change")
	}
	age := r.e.scaleAge
	if !r.analyse(0, 1, 40) {
		t.Fatal("repeated Jacobian missed")
	}
	if r.caps() != first {
		t.Fatalf("reused caps %x, want the first sight's %x", r.caps(), first)
	}
	if r.e.scaleAge != age {
		t.Fatalf("reused analysis aged the scales: scaleAge %d → %d", age, r.e.scaleAge)
	}
	// The same Jacobian analysed under today's scales gives other bits,
	// so the comparison above tells first-sight caps from fresh ones.
	if err := r.e.computeStability(); err != nil {
		t.Fatal(err)
	}
	if r.caps() == first {
		t.Fatal("test premise broken: recomputing under the new scales gives the first sight's caps")
	}
}

// TestStabilityMemoWideKey: the key is the whole varying set, however
// wide. With every entry of a 6×6 Jxx varying (36, more than the 5-stage
// multiplier's 24 to 28), a repeated Jacobian is served from the memo
// and one differing in the last entry to vary is not.
func TestStabilityMemoWideKey(t *testing.T) {
	r := newMemoRig(t, 6, 2)
	var writes []float64
	for k := 0; k < 36; k++ {
		writes = append(writes, float64(k/6), float64(k%6), 0.5+float64(k))
	}
	if r.analyse(writes...) {
		t.Fatal("first sight reused")
	}
	if n := len(r.s.jac.vary); n != 36 {
		t.Fatalf("varying set holds %d entries, want 36", n)
	}
	if !r.analyse(writes...) {
		t.Fatal("repeated 36-entry Jacobian missed")
	}
	if r.analyse(5, 5, math.Nextafter(35.5, 36)) {
		t.Fatal("Jacobian differing in the last varying entry was served from the memo")
	}
	if !r.analyse(5, 5, 35.5) {
		t.Fatal("first Jacobian missed on its return")
	}
}

// TestStabilityMemoKeyStorage: the key storage grows to fit the widest
// varying set a memo has met and never shrinks, so a recycled memo
// serves a narrower run without allocating, and nothing of the wider
// keys it held is found under the narrower width.
func TestStabilityMemoKeyStorage(t *testing.T) {
	m := new(stabMemo)
	data := make([]float64, 40)
	for i := range data {
		data[i] = float64(i) + 0.25
	}
	wide := make([]int, 40)
	for i := range wide {
		wide[i] = i
	}
	m.empty(len(wide))
	key, h := m.keyOf(data, wide)
	slot, _ := m.find(key, h)
	m.store(slot, key, h, 1, 2)
	grown := len(m.keys)
	if grown < (memoSlots+1)*40 {
		t.Fatalf("key storage %d words, want at least %d", grown, (memoSlots+1)*40)
	}
	narrow := wide[:3]
	if n := testing.AllocsPerRun(10, func() { m.empty(len(narrow)) }); n != 0 {
		t.Fatalf("emptying to a narrower width allocates %.0f objects, want 0", n)
	}
	if len(m.keys) != grown {
		t.Fatalf("key storage shrank from %d to %d words", grown, len(m.keys))
	}
	key, h = m.keyOf(data, narrow)
	if _, hit := m.find(key, h); hit {
		t.Fatal("emptied memo hit")
	}
}

// TestStabilityMemoVerifiesKeyBits: a slot whose hash matches but whose
// stored key bits differ is not a hit.
func TestStabilityMemoVerifiesKeyBits(t *testing.T) {
	m := new(stabMemo)
	m.empty(2)
	data := []float64{1.5, -2.25, 7}
	vary := []int{2, 0}
	key, h := m.keyOf(data, vary)
	slot, hit := m.find(key, h)
	if hit {
		t.Fatal("empty memo hit")
	}
	m.store(slot, key, h, 1e-3, 2e3)
	if got, hit := m.find(key, h); !hit || got != slot || m.caps[slot] != [2]float64{1e-3, 2e3} {
		t.Fatalf("stored key: slot %d hit %v caps %v", got, hit, m.caps[slot])
	}
	// Another key under the stored hash, as a collision would leave it.
	m.keys[slot*m.width+1] ^= 1
	if _, hit := m.find(key, h); hit {
		t.Fatal("hit on hash alone: stored key bits differ")
	}
}

// TestStabilityMemoFillLimit: the table holds memoFill entries and
// empties before the next store.
func TestStabilityMemoFillLimit(t *testing.T) {
	m := new(stabMemo)
	m.empty(1)
	vary := []int{0}
	data := []float64{0}
	store := func(v float64) {
		data[0] = v
		key, h := m.keyOf(data, vary)
		slot, hit := m.find(key, h)
		if hit {
			t.Fatalf("key %v present before its store", v)
		}
		m.store(slot, key, h, v, -v)
	}
	found := func(v float64) bool {
		data[0] = v
		key, h := m.keyOf(data, vary)
		_, hit := m.find(key, h)
		return hit
	}
	for k := 0; k < memoFill; k++ {
		store(float64(k))
	}
	for k := 0; k < memoFill; k++ {
		if !found(float64(k)) {
			t.Fatalf("entry %d of %d lost before the fill limit", k, memoFill)
		}
	}
	store(memoFill)
	if m.n != 1 || !found(memoFill) || found(0) {
		t.Fatalf("after the store past the fill limit: %d entries, new found %v, old found %v; want 1, true, false",
			m.n, found(memoFill), found(0))
	}
}

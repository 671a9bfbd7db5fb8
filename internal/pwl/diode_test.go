package pwl

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDiodeCurrentReverseAndForward(t *testing.T) {
	d := DefaultDiode(1024)
	// Deep reverse bias: current saturates near -Is.
	if i := d.Current(-5); math.Abs(i+d.Is) > 0.05*d.Is {
		t.Fatalf("reverse current = %v, want ~%v", i, -d.Is)
	}
	// Zero bias: zero current.
	if i := d.Current(0); math.Abs(i) > 1e-15 {
		t.Fatalf("zero-bias current = %v", i)
	}
	// Strong forward bias: current approaches (Vd - Von)/Rs and must stay
	// below Vd/Rs.
	i := d.Current(1.0)
	if i <= 0 || i >= 1.0/d.Rs {
		t.Fatalf("forward current = %v, want in (0, %v)", i, 1.0/d.Rs)
	}
}

func TestDiodeCurrentMonotonic(t *testing.T) {
	d := DefaultDiode(256)
	prev := math.Inf(-1)
	for v := -10.0; v <= 1.5; v += 0.01 {
		i := d.Current(v)
		if i < prev-1e-18 {
			t.Fatalf("current not monotonic at v=%v: %v < %v", v, i, prev)
		}
		prev = i
	}
}

func TestDiodeSeriesResistanceConsistency(t *testing.T) {
	// The implicit solve must satisfy Id = Is*(exp((Vd-Id*Rs)/NVt)-1).
	d := DefaultDiode(64)
	for _, v := range []float64{-2, -0.1, 0.05, 0.2, 0.4, 0.8, 1.2} {
		i := d.Current(v)
		rhs := d.Is * (math.Exp((v-i*d.Rs)/d.NVt) - 1)
		if math.Abs(i-rhs) > 1e-9*(1+math.Abs(i)) {
			t.Fatalf("implicit equation violated at v=%v: i=%v rhs=%v", v, i, rhs)
		}
	}
}

func TestDiodeConductancePositiveAndBounded(t *testing.T) {
	d := DefaultDiode(64)
	for v := -5.0; v <= 1.5; v += 0.05 {
		g := d.Conductance(v)
		if g < 0 {
			t.Fatalf("negative conductance at v=%v: %v", v, g)
		}
		if g > 1/d.Rs+1e-9 {
			t.Fatalf("conductance exceeds series-resistance limit at v=%v: %v > %v", v, g, 1/d.Rs)
		}
	}
}

func TestDiodeConductanceMatchesFiniteDifference(t *testing.T) {
	d := DefaultDiode(64)
	h := 1e-6
	for _, v := range []float64{-1, 0, 0.2, 0.35, 0.6} {
		fd := (d.Current(v+h) - d.Current(v-h)) / (2 * h)
		an := d.Conductance(v)
		if math.Abs(fd-an) > 1e-4*(1+math.Abs(an)) {
			t.Fatalf("conductance mismatch at v=%v: analytic %v, fd %v", v, an, fd)
		}
	}
}

func TestDiodeCompanionApproximatesCurrent(t *testing.T) {
	d := DefaultDiode(4096)
	for _, v := range []float64{-8, -1, 0, 0.1, 0.3, 0.5, 1.0} {
		g, j, _ := d.Companion(v)
		approx := g*v + j
		exact := d.Current(v)
		// Absolute tolerance scaled to the on-current magnitude.
		if math.Abs(approx-exact) > 1e-4 {
			t.Fatalf("companion at v=%v: %v vs exact %v", v, approx, exact)
		}
	}
}

func TestDiodeCompanionSegmentChanges(t *testing.T) {
	d := DefaultDiode(512)
	_, _, s1 := d.Companion(0.10)
	_, _, s2 := d.Companion(0.50)
	if s1 == s2 {
		t.Fatalf("distant operating points should hit different segments")
	}
	_, _, s3 := d.Companion(0.10 + 1e-9)
	if s1 != s3 {
		t.Fatalf("nearby operating points should share a segment")
	}
}

func TestDiodePropertyCompanionPassive(t *testing.T) {
	// Property: every companion has G >= 0 (passivity of the linearised
	// device — required by the paper's stability argument).
	d := DefaultDiode(2048)
	f := func(vRaw int16) bool {
		v := float64(vRaw) / 1000.0 // [-32.8, 32.8] V, covers extrapolation
		g, _, _ := d.Companion(v)
		return g >= -1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatalf("property failed: %v", err)
	}
}

func TestDiodeNoSeriesResistance(t *testing.T) {
	d := &Diode{Is: 1e-9, NVt: 26e-3}
	d.BuildTable(128)
	v := 0.3
	want := d.Is * (math.Exp(v/d.NVt) - 1)
	if got := d.Current(v); math.Abs(got-want) > 1e-12*(1+want) {
		t.Fatalf("Rs=0 current = %v, want %v", got, want)
	}
	wantG := d.Is * math.Exp(v/d.NVt) / d.NVt
	if got := d.Conductance(v); math.Abs(got-wantG) > 1e-9*(1+wantG) {
		t.Fatalf("Rs=0 conductance = %v, want %v", got, wantG)
	}
}

func TestBuildTableMinimumSegments(t *testing.T) {
	d := &Diode{Is: 1e-9, NVt: 26e-3, Rs: 10}
	d.BuildTable(0)
	if d.Table().NumSegments() < 2 {
		t.Fatalf("BuildTable should clamp to >= 2 segments")
	}
}

// TestBuildTableShared: diodes whose parameters are bit-equal share one
// table, and that table is exactly what a fresh Build produces; a
// different Is, Rs or segment count gets a table of its own.
func TestBuildTableShared(t *testing.T) {
	a, b := DefaultDiode(1024), DefaultDiode(1024)
	if a.Table() != b.Table() {
		t.Fatal("bit-equal diodes hold different tables")
	}
	fresh := MustBuild(a.Current, -15.0, 1.5, 1024)
	if !reflect.DeepEqual(a.Table(), fresh) {
		t.Fatal("shared table differs from a fresh Build")
	}
	for i, s := range a.Table().segs {
		f := fresh.segs[i]
		if math.Float64bits(s.G) != math.Float64bits(f.G) || math.Float64bits(s.J) != math.Float64bits(f.J) ||
			math.Float64bits(s.V0) != math.Float64bits(f.V0) || math.Float64bits(s.V1) != math.Float64bits(f.V1) {
			t.Fatalf("segment %d: shared %+v, fresh %+v", i, s, f)
		}
	}
	for _, tc := range []struct {
		name string
		d    Diode
		segs int
	}{
		{"Is", Diode{Is: math.Nextafter(a.Is, 1), NVt: a.NVt, Rs: a.Rs}, 1024},
		{"Rs", Diode{Is: a.Is, NVt: a.NVt, Rs: 26}, 1024},
		{"segments", Diode{Is: a.Is, NVt: a.NVt, Rs: a.Rs}, 512},
	} {
		tc.d.BuildTable(tc.segs)
		if tc.d.Table() == a.Table() {
			t.Errorf("a different %s shares the default table", tc.name)
		}
	}
}

// concurrentRuns gives each run of TestBuildTableConcurrent (under
// -count) a key that no earlier run stored.
var concurrentRuns atomic.Int64

// TestBuildTableConcurrent: builders racing on a key no one has built
// yet all end up holding one table (run it under -race).
func TestBuildTableConcurrent(t *testing.T) {
	const n = 8
	is := 3.25e-9 + float64(concurrentRuns.Add(1))*1e-12
	diodes := make([]*Diode, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range diodes {
		diodes[i] = &Diode{Is: is, NVt: 31e-3, Rs: 47}
		wg.Add(1)
		go func(d *Diode) {
			defer wg.Done()
			<-start
			d.BuildTable(333)
		}(diodes[i])
	}
	close(start)
	wg.Wait()
	for i, d := range diodes {
		if d.Table() != diodes[0].Table() {
			t.Fatalf("diode %d holds a different table", i)
		}
	}
}

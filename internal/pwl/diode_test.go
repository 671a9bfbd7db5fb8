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
// table, and that table is exactly what a fresh BuildMerged produces; a
// different Is, Rs or cell count gets a table of its own.
func TestBuildTableShared(t *testing.T) {
	a, b := DefaultDiode(1024), DefaultDiode(1024)
	if a.Table() != b.Table() {
		t.Fatal("bit-equal diodes hold different tables")
	}
	fresh, err := BuildMerged(a.Current, -15.0, 1.5, 1024, mergeTol*a.Is)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Table(), fresh) {
		t.Fatal("shared table differs from a fresh BuildMerged")
	}
	for i, s := range a.Table().cells {
		f := fresh.cells[i]
		if math.Float64bits(s.g) != math.Float64bits(f.g) || math.Float64bits(s.j) != math.Float64bits(f.j) ||
			math.Float64bits(s.v0) != math.Float64bits(f.v0) || math.Float64bits(s.v1) != math.Float64bits(f.v1) ||
			s.seg != f.seg {
			t.Fatalf("cell %d: shared %+v, fresh %+v", i, s, f)
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

// multiplierDiode has the parameters of the harvester's Dickson
// multiplier diode (blocks.DefaultDickson), the table the engines march
// on.
func multiplierDiode(cells int) *Diode {
	d := &Diode{Is: 5e-6, NVt: 38.7e-3, Rs: 100}
	d.BuildTable(cells)
	return d
}

// mergedTables are the merged diode tables the structure tests walk:
// the multiplier's default grid and a coarse one, and DefaultDiode.
func mergedTables() map[string]*Diode {
	return map[string]*Diode{
		"multiplier/1024": multiplierDiode(1024),
		"multiplier/64":   multiplierDiode(64),
		"default/1024":    DefaultDiode(1024),
	}
}

// TestMergedTableAccuracyContract: at 16 probes per cell, the merged
// table's error against Current exceeds the uniform table's by at most
// mergeTol·Is, and the flat reverse-bias span did merge.
func TestMergedTableAccuracyContract(t *testing.T) {
	for name, d := range mergedTables() {
		tab := d.Table()
		uni := MustBuild(d.Current, -15, 1.5, tab.NumCells())
		if tab.NumSegments() > tab.NumCells()/4 {
			t.Errorf("%s: %d segments of %d cells, the reverse span did not merge",
				name, tab.NumSegments(), tab.NumCells())
		}
		tol := mergeTol * d.Is
		for _, c := range uni.cells {
			for p := 0; p <= 16; p++ {
				v := c.v0 + (c.v1-c.v0)*float64(p)/16
				exact := d.Current(v)
				if e, u := math.Abs(tab.Eval(v)-exact), math.Abs(uni.Eval(v)-exact); e > u+tol {
					t.Fatalf("%s: at v=%v the merged error %g exceeds the uniform %g by more than %g",
						name, v, e, u, tol)
				}
			}
		}
	}
}

// TestMergedTableStructure: segment ids start at 0, never decrease with
// v and step by at most one; cells that share an id share their G/J
// bits; every cell keeps Build's bounds, and a cell alone in its segment
// keeps Build's G/J bits. On the multiplier's default grid every cell
// from −0.2 V up, the knee included, is alone. Off the window the table
// continues its edge segments.
func TestMergedTableStructure(t *testing.T) {
	bits := math.Float64bits
	for name, d := range mergedTables() {
		tab := d.Table()
		uni := MustBuild(d.Current, -15, 1.5, tab.NumCells())
		cs := tab.cells
		if cs[0].seg != 0 || cs[len(cs)-1].seg != tab.NumSegments()-1 {
			t.Fatalf("%s: ids run %d..%d for %d segments", name, cs[0].seg, cs[len(cs)-1].seg, tab.NumSegments())
		}
		for k, c := range cs {
			u := uni.cells[k]
			if bits(c.v0) != bits(u.v0) || bits(c.v1) != bits(u.v1) {
				t.Fatalf("%s: cell %d bounds [%v, %v), Build's [%v, %v)", name, k, c.v0, c.v1, u.v0, u.v1)
			}
			if k > 0 {
				prev := cs[k-1]
				switch c.seg - prev.seg {
				case 0:
					if bits(c.g) != bits(prev.g) || bits(c.j) != bits(prev.j) {
						t.Fatalf("%s: cells %d and %d share id %d but not G/J", name, k-1, k, c.seg)
					}
				case 1:
				default:
					t.Fatalf("%s: id %d after %d at cell %d", name, c.seg, prev.seg, k)
				}
			}
			alone := (k == 0 || cs[k-1].seg != c.seg) && (k == len(cs)-1 || cs[k+1].seg != c.seg)
			if alone && (bits(c.g) != bits(u.g) || bits(c.j) != bits(u.j)) {
				t.Fatalf("%s: unmerged cell %d has G/J %v/%v, Build's %v/%v", name, k, c.g, c.j, u.g, u.j)
			}
			if name == "multiplier/1024" && c.v0 >= -0.2 && !alone {
				t.Fatalf("%s: knee cell %d at %v V merged", name, k, c.v0)
			}
		}
		lo, hi := cs[0], cs[len(cs)-1]
		if g, j, _ := tab.Companion(-16); bits(g) != bits(lo.g) || bits(j) != bits(lo.j) {
			t.Fatalf("%s: below the window G/J %v/%v, first segment's %v/%v", name, g, j, lo.g, lo.j)
		}
		if g, j, _ := tab.Companion(2); bits(g) != bits(hi.g) || bits(j) != bits(hi.j) {
			t.Fatalf("%s: above the window G/J %v/%v, last segment's %v/%v", name, g, j, hi.g, hi.j)
		}
		prev := -2
		for v := -16.0; v <= 2; v += 1e-3 {
			g, j, seg := tab.Companion(v)
			if seg < prev {
				t.Fatalf("%s: segment id %d after %d at v=%v", name, seg, prev, v)
			}
			if g2, j2 := tab.Lookup(v); bits(g) != bits(g2) || bits(j) != bits(j2) || seg != tab.SegmentIndex(v) {
				t.Fatalf("%s: Companion, Lookup and SegmentIndex disagree at v=%v", name, v)
			}
			prev = seg
		}
	}
}

// TestBuildMerged: a linear function merges into one exact segment; at
// tol 0 a strictly convex one keeps Build's table bit for bit.
func TestBuildMerged(t *testing.T) {
	lin := func(v float64) float64 { return 0.5*v - 1 }
	tab, err := BuildMerged(lin, -4, 4, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumSegments() != 1 || tab.NumCells() != 64 {
		t.Fatalf("linear f: %d segments of %d cells, want 1 of 64", tab.NumSegments(), tab.NumCells())
	}
	for _, v := range []float64{-5, -4, -1.3, 0, 3.99, 4, 7} {
		if got := tab.Eval(v); math.Abs(got-lin(v)) > 1e-12 {
			t.Fatalf("Eval(%v) = %v, want %v", v, got, lin(v))
		}
	}
	merged, err := BuildMerged(math.Exp, -1, 1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uni := MustBuild(math.Exp, -1, 1, 32); !reflect.DeepEqual(merged, uni) {
		t.Fatal("tol 0 merged cells of a strictly convex f")
	}
	if _, err := BuildMerged(math.Sin, 1, 1, 4, 1); err == nil {
		t.Fatal("BuildMerged accepted an empty interval")
	}
}

// TestCompanionMinimumGrid: the smallest grid BuildTable allows, two
// cells, serves every lookup (off-table ones included).
func TestCompanionMinimumGrid(t *testing.T) {
	d := multiplierDiode(2)
	if n := d.Table().NumCells(); n != 2 {
		t.Fatalf("BuildTable(2) built %d cells", n)
	}
	for _, v := range []float64{math.NaN(), -20, -15, -3, 0, 1.5, 9} {
		g, _, seg := d.Companion(v)
		if g < 0 || seg < -1 || seg > d.Table().NumSegments() {
			t.Fatalf("Companion(%v) = g %v, segment %d", v, g, seg)
		}
	}
}

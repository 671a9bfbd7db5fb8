package blocks

import (
	"math"
	"math/rand"
	"testing"

	"harvsim/internal/core"
)

// stampBits returns the bits of every Jacobian entry and excitation of
// sys.
func stampBits(sys *core.System) []uint64 {
	var out []uint64
	for _, vs := range [][]float64{sys.Jxx.Data, sys.Jxy.Data, sys.Jyx.Data, sys.Jyy.Data, sys.Ex, sys.Ey} {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// closedSystem builds a system of b plus resistors that close every
// terminal pair it leaves open, so the algebraic system is square.
// Resistors are state-only blocks that restamp nothing after their
// first call, so after that first Linearise the system's stamps and
// changed flag are b's.
func closedSystem(t *testing.T, b core.Block) *core.System {
	t.Helper()
	sys := core.NewSystem()
	sys.AddBlock(b)
	terms := b.Terminals()
	for k := b.NumEquations(); k < len(terms); k++ {
		sys.AddBlock(NewResistor("close"+terms[k], terms[k], terms[k], 1e3*float64(k+1)))
	}
	if err := sys.Build(); err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	return sys
}

// TestStateOnlyBlocksRepeat: every block that declares it linearises
// from its state alone (core.StateLineariser), called again at the same
// (t, x) with other terminal values, writes the same stamp bits and
// returns false — what lets the engine's re-check after the terminal
// solve skip it. The Microgenerator is checked in its Duffing, coupled
// and inductive variants and under a noise vibration, and the blocks
// expected to declare it must.
func TestStateOnlyBlocksRepeat(t *testing.T) {
	noisy := NewVibration(0.59, 64)
	noisy.ConfigureNoise(NoiseSpec{RMS: 0.8, FLo: 55, FHi: 85, Seed: 42})
	duffing := DefaultMicrogen()
	duffing.K3 = 5e6
	coupled := DefaultMicrogen()
	coupled.Xi1, coupled.Xi2, coupled.Z0 = 20, 300, 1e-3
	inductive := DefaultMicrogen()
	inductive.Lc = 1e-3
	cases := []struct {
		b         core.Block
		stateOnly bool
	}{
		{NewMicrogenerator("gen", DefaultMicrogen(), NewVibration(0.59, 64)), true},
		{NewMicrogenerator("duffing", duffing, noisy), true},
		{NewMicrogenerator("coupled", coupled, noisy), true},
		{NewMicrogenerator("inductive", inductive, noisy), true},
		{NewPiezo("pz", DefaultPiezo(), noisy), true},
		{NewElectrostatic("es", DefaultElectrostatic(), noisy), true},
		{NewResistor("r", "Vm", "Im", 1e3), true},
		{NewSupercap("store", DefaultSupercap()), false},
		{NewDickson("mult", DefaultDickson(1024)), false},
		{NewACSource("src", "Vm", "Im", math.Sin, 10), false},
	}
	rng := rand.New(rand.NewSource(23))
	for _, c := range cases {
		sl, ok := c.b.(core.StateLineariser)
		declared := ok && sl.LinearisesFromState()
		if c.stateOnly && !declared {
			t.Errorf("%s: does not declare that it linearises from its state", c.b.Name())
		}
		if !declared {
			continue
		}
		sys := closedSystem(t, c.b)
		x := make([]float64, sys.NX())
		y := make([]float64, sys.NY())
		for n := 0; n < 200; n++ {
			tm := rng.Float64()
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(-4+rng.Intn(4)))
			}
			for i := range y {
				y[i] = rng.NormFloat64() * 10
			}
			sys.Linearise(tm, x, y)
			before := stampBits(sys)
			for i := range y {
				y[i] = rng.NormFloat64() * 10
			}
			if sys.Linearise(tm, x, y) {
				t.Fatalf("%s: second call at the same (t, x) reported a change", c.b.Name())
			}
			after := stampBits(sys)
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("%s: second call at the same (t, x) moved stamp word %d: %x -> %x",
						c.b.Name(), i, before[i], after[i])
				}
			}
		}
	}
}

// TestDicksonMaskedRestampMatchesFull: a multiplier that restamps only
// what the moved diodes touch holds, after every Linearise, the stamp
// bits of a twin that restamps everything (a full mask, forced by
// ResetLinearisation before each call), over seeded operating points
// that move all diodes, one diode, or none, across segment changes and
// the merged reverse-bias span; 3, 5 and 8 stages, and MaxDicksonStages,
// whose last diode takes the mask's top bit.
func TestDicksonMaskedRestampMatchesFull(t *testing.T) {
	for _, stages := range []int{3, 5, 8, MaxDicksonStages} {
		p := DefaultDickson(1024)
		p.Stages = stages
		masked := NewDickson("mult", p)
		full := NewDickson("mult", p)
		sysM := closedSystem(t, masked)
		sysF := closedSystem(t, full)
		rng := rand.New(rand.NewSource(int64(29 + stages)))
		x := make([]float64, sysM.NX())
		y := make([]float64, sysM.NY())
		vm := sysM.MustTerminal("Vm")
		restamps := 0
		for n := 0; n < 3000; n++ {
			switch r := rng.Intn(6); {
			case r == 0: // everything moves
				for i := range x {
					x[i] = rng.Float64() * 4
				}
				y[vm] = (rng.Float64()*2 - 1) * 3
			case r < 4: // one stage voltage moves a little
				x[rng.Intn(stages)] += rng.NormFloat64() * math.Pow(10, float64(-3+rng.Intn(3)))
			case r == 4: // the source moves
				y[vm] += rng.NormFloat64() * 0.05
			default: // nothing moves
			}
			if sysM.Linearise(0, x, y) {
				restamps++
			}
			sysF.ResetLinearisation()
			sysF.Linearise(0, x, y)
			bm, bf := stampBits(sysM), stampBits(sysF)
			for i := range bm {
				if bm[i] != bf[i] {
					t.Fatalf("%d stages, point %d: masked restamp word %d = %x, full %x", stages, n, i, bm[i], bf[i])
				}
			}
		}
		if restamps < 500 {
			t.Fatalf("%d stages: only %d restamps, the points do not exercise the mask", stages, restamps)
		}
	}
}

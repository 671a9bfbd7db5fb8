package blocks

import (
	"math"
	"testing"

	"harvsim/internal/core"
	"harvsim/internal/implicit"
	"harvsim/internal/trace"
)

func TestVibrationPhaseContinuity(t *testing.T) {
	v := NewVibration(0.59, 70)
	v.SetFrequency(10, 71)
	v.SetFrequency(20, 64)
	eps := 1e-9
	for _, tc := range []float64{10, 20} {
		before := v.Accel(tc - eps)
		after := v.Accel(tc + eps)
		if math.Abs(before-after) > 1e-3 {
			t.Fatalf("acceleration discontinuity at %v: %v vs %v", tc, before, after)
		}
	}
	if v.Freq(5) != 70 || v.Freq(15) != 71 || v.Freq(25) != 64 {
		t.Fatalf("frequency profile wrong: %v %v %v", v.Freq(5), v.Freq(15), v.Freq(25))
	}
}

func TestVibrationAmplitudeAndPeriod(t *testing.T) {
	v := NewVibration(2, 50)
	// Peak near quarter period.
	if got := v.Accel(1.0 / 200); math.Abs(got-2) > 1e-9 {
		t.Fatalf("peak = %v, want 2", got)
	}
	// Zero at half period.
	if got := v.Accel(1.0 / 100); math.Abs(got) > 1e-9 {
		t.Fatalf("half-period value = %v, want 0", got)
	}
}

func TestVibrationSetFrequencyValidation(t *testing.T) {
	v := NewVibration(1, 50)
	v.SetFrequency(10, 60)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-order SetFrequency should panic")
		}
	}()
	v.SetFrequency(5, 55)
}

func TestMicrogenTuningEquation12(t *testing.T) {
	p := DefaultMicrogen()
	fr := p.UntunedHz()
	if math.Abs(fr-64) > 1e-9 {
		t.Fatalf("untuned fr = %v, want 64", fr)
	}
	// Eq. 12 round trip.
	for _, f := range []float64{64, 67, 70, 71, 78} {
		ft := p.ForceForHz(f)
		if got := p.TunedHz(ft); math.Abs(got-f) > 1e-9 {
			t.Fatalf("TunedHz(ForceForHz(%v)) = %v", f, got)
		}
	}
	// 14 Hz range within the actuator's force budget (~2.2 N).
	if ft := p.ForceForHz(78); ft < 0 || ft > 3 {
		t.Fatalf("force for 78 Hz = %v N, want O(2) N", ft)
	}
}

// buildGenLoad wires a microgenerator to a resistive load.
func buildGenLoad(vib *Vibration, rLoad float64) (*core.System, *Microgenerator) {
	sys := core.NewSystem()
	gen := NewMicrogenerator("gen", DefaultMicrogen(), vib)
	sys.AddBlock(gen)
	sys.AddBlock(NewResistor("load", "Vm", "Im", rLoad))
	return sys, gen
}

func TestMicrogenResonantResponse(t *testing.T) {
	// Drive at the untuned resonance and off resonance: the resonant run
	// must deliver far more power into a matched load.
	run := func(fDrive float64) float64 {
		vib := NewVibration(0.59, fDrive)
		sys, _ := buildGenLoad(vib, 3000)
		eng := core.NewEngine(sys)
		eng.Ctl.HMax = 2e-4
		var p trace.Series
		eng.Observe(func(tm float64, x, y []float64) {
			if tm > 1.0 { // skip start-up transient
				p.Append(tm, y[0]*y[1])
			}
		})
		if err := eng.Run(0, 2.0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Mean()
	}
	atRes := run(64)
	offRes := run(52)
	if atRes < 10*offRes {
		t.Fatalf("resonant power %v should dwarf off-resonance power %v", atRes, offRes)
	}
}

func TestMicrogenCalibratedPowerOutput(t *testing.T) {
	// Headline calibration: tuned microgenerator at resonance with its
	// matched load delivers on the order of the paper's 116-118 uW.
	vib := NewVibration(0.59, 64)
	sys, _ := buildGenLoad(vib, 3000)
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 2e-4
	var p trace.Series
	eng.Observe(func(tm float64, x, y []float64) {
		if tm > 6 { // past the mechanical transient (Q ~ 250)
			p.Append(tm, y[0]*y[1])
		}
	})
	if err := eng.Run(0, 10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mean := p.Mean()
	if mean < 60e-6 || mean > 200e-6 {
		t.Fatalf("matched-load power = %v W, want ~118 uW", mean)
	}
}

func TestMicrogenTuningShiftsResonance(t *testing.T) {
	// With the excitation at 70 Hz, power with the generator tuned to 70
	// must beat the untuned (64 Hz) generator.
	run := func(tuneHz float64) float64 {
		vib := NewVibration(0.59, 70)
		sys, gen := buildGenLoad(vib, 3000)
		gen.SetTuningForce(gen.P.ForceForHz(tuneHz), 0)
		eng := core.NewEngine(sys)
		eng.Ctl.HMax = 2e-4
		var p trace.Series
		eng.Observe(func(tm float64, x, y []float64) {
			if tm > 6 {
				p.Append(tm, y[0]*y[1])
			}
		})
		if err := eng.Run(0, 10); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return p.Mean()
	}
	tuned := run(70)
	untuned := run(64)
	if tuned < 3*untuned {
		t.Fatalf("tuned power %v should dominate untuned %v at 70 Hz drive", tuned, untuned)
	}
}

func TestDicksonRectifiesAndBoosts(t *testing.T) {
	// Drive the multiplier from an AC source into a light resistive load:
	// the DC output must build well above the source amplitude (voltage
	// boosting, paper Fig. 5). The charge pump's output impedance is
	// ~N/(C*f) ~ 3.2 kOhm, so the 220 uF output stage settles in a few
	// seconds.
	amp := 1.0
	sys := core.NewSystem()
	sys.AddBlock(NewACSource("src", "Vm", "Im", func(tm float64) float64 {
		return amp * math.Sin(2*math.Pi*70*tm)
	}, 50))
	dk := NewDickson("mult", DefaultDickson(1024))
	sys.AddBlock(dk)
	sys.AddBlock(NewResistor("load", "Vc", "Ic", 1e6))
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 2e-4
	var vout trace.Series
	off := sys.MustStateOffset("mult")
	vnIdx := off + dk.P.Stages - 1 // V_N
	eng.Observe(func(tm float64, x, y []float64) { vout.Append(tm, x[vnIdx]) })
	if err := eng.Run(0, 10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, vEnd := vout.Last()
	if vEnd < amp*1.5 {
		t.Fatalf("multiplier output %v V should exceed source amplitude %v V", vEnd, amp)
	}
}

func TestDicksonChargesSupercapSlowly(t *testing.T) {
	// Into the 0.46 F supercapacitor the same pump charges with
	// tau ~ Rout*C ~ 1500 s — the disparate-time-scale problem the paper
	// identifies. Verify a positive, slow, monotone charging slope.
	sys := core.NewSystem()
	sys.AddBlock(NewACSource("src", "Vm", "Im", func(tm float64) float64 {
		return math.Sin(2 * math.Pi * 70 * tm)
	}, 50))
	sys.AddBlock(NewDickson("mult", DefaultDickson(1024)))
	sys.AddBlock(NewSupercap("store", DefaultSupercap()))
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 2e-4
	var vout trace.Series
	off := sys.MustStateOffset("store")
	eng.Observe(func(tm float64, x, y []float64) { vout.Append(tm, x[off]) })
	if err := eng.Run(0, 20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, vEnd := vout.Last()
	if vEnd < 5e-3 || vEnd > 0.5 {
		t.Fatalf("20 s of charging should land in the tens of mV: %v", vEnd)
	}
	for i := 1; i < vout.Len(); i++ {
		if vout.Vals[i] < vout.Vals[i-1]-1e-3 {
			t.Fatalf("supercap discharged at t=%v", vout.Times[i])
		}
	}
}

func TestDicksonStageVoltagesOrdered(t *testing.T) {
	// In steady charging, later stages accumulate more DC voltage.
	sys := core.NewSystem()
	sys.AddBlock(NewACSource("src", "Vm", "Im", func(tm float64) float64 {
		return math.Sin(2 * math.Pi * 70 * tm)
	}, 50))
	dk := NewDickson("mult", DefaultDickson(512))
	sys.AddBlock(dk)
	sys.AddBlock(NewResistor("load", "Vc", "Ic", 1e6))
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 2e-4
	if err := eng.Run(0, 8); err != nil {
		t.Fatalf("Run: %v", err)
	}
	x := eng.State()
	off := sys.MustStateOffset("mult")
	v1 := x[off]
	v5 := x[off+4]
	if !(v5 > v1) {
		t.Fatalf("stage voltages not boosting: V1=%v V5=%v", v1, v5)
	}
}

// TestDicksonStageBounds: a multiplier is valid with 1 to
// MaxDicksonStages stages and a diode, and NewDickson panics exactly
// when DicksonParams.Validate errs.
func TestDicksonStageBounds(t *testing.T) {
	for _, c := range []struct {
		stages int
		diode  bool
		valid  bool
	}{
		{-1, true, false}, {0, true, false}, {1, true, true}, {5, true, true},
		{MaxDicksonStages, true, true}, {MaxDicksonStages + 1, true, false},
		{math.MaxInt32, true, false}, {5, false, false},
	} {
		p := DefaultDickson(64)
		p.Stages = c.stages
		if !c.diode {
			p.Diode = nil
		}
		err := p.Validate()
		if (err == nil) != c.valid {
			t.Errorf("%d stages, diode %v: Validate = %v, want valid %v", c.stages, c.diode, err, c.valid)
		}
		func() {
			defer func() {
				if panicked := recover() != nil; panicked != (err != nil) {
					t.Errorf("%d stages, diode %v: NewDickson panicked %v, Validate erred %v",
						c.stages, c.diode, panicked, err != nil)
				}
			}()
			NewDickson("mult", p)
		}()
	}
}

func TestSupercapBranchRedistribution(t *testing.T) {
	// Charge through the terminal with a stiff source at 2 V: the
	// immediate branch charges within seconds; the delayed and long-term
	// branches lag with their larger time constants.
	p := DefaultSupercap()
	sys := core.NewSystem()
	sys.AddBlock(NewACSource("src", "Vc", "Ic", func(float64) float64 { return 2 }, 1.0))
	sc := NewSupercap("store", p)
	sys.AddBlock(sc)
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 1e-3
	if err := eng.Run(0, 20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	x := eng.State()
	vi, vd, vl := x[0], x[1], x[2]
	if vi < 1.8 {
		t.Fatalf("immediate branch should be nearly charged: %v", vi)
	}
	if !(vd < vi && vl < vd) {
		t.Fatalf("branch ordering wrong: vi=%v vd=%v vl=%v", vi, vd, vl)
	}
	if vd < 0.05 || vl < 0.001 {
		t.Fatalf("slow branches should have started charging: vd=%v vl=%v", vd, vl)
	}
}

func TestSupercapLoadModes(t *testing.T) {
	if LoadSleep.Req() != 1e9 || LoadMCU.Req() != 33 || LoadTuning.Req() != 16.7 {
		t.Fatalf("Eq. 16 load values wrong")
	}
	if LoadSleep.String() != "sleep" || LoadMCU.String() != "mcu-awake" || LoadTuning.String() != "tuning" {
		t.Fatalf("mode names wrong")
	}
}

func TestSupercapDischargeUnderLoad(t *testing.T) {
	// Pre-charged supercap discharges through the tuning load when
	// nothing feeds it (current source terminal pinned to 0 A through a
	// huge source resistance).
	p := DefaultSupercap()
	p.V0 = 3.0
	sys := core.NewSystem()
	sys.AddBlock(NewACSource("open", "Vc", "Ic", func(float64) float64 { return 0 }, 1e12))
	sc := NewSupercap("store", p)
	sc.SetMode(LoadTuning)
	sys.AddBlock(sc)
	eng := core.NewEngine(sys)
	eng.Ctl.HMax = 1e-3
	var v trace.Series
	eng.Observe(func(tm float64, x, y []float64) { v.Append(tm, x[0]) })
	if err := eng.Run(0, 5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, vEnd := v.Last()
	if vEnd >= 3.0 {
		t.Fatalf("supercap did not discharge: %v", vEnd)
	}
	// Roughly exponential decay with tau ~ Req*C ~ 16.7*0.5 ~ 8 s.
	if vEnd < 1.0 {
		t.Fatalf("discharge too fast: %v after 5 s", vEnd)
	}
}

func TestSupercapStoredEnergy(t *testing.T) {
	p := DefaultSupercap()
	sc := NewSupercap("s", p)
	e0 := sc.StoredEnergy([]float64{0, 0, 0})
	if e0 != 0 {
		t.Fatalf("empty energy = %v", e0)
	}
	e3 := sc.StoredEnergy([]float64{3, 3, 3})
	// C0 terms: (0.27+0.10+0.22)*9/2 = 2.655; C1 term: 0.19*27/3 = 1.71.
	want := 2.655 + 1.71
	if math.Abs(e3-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", e3, want)
	}
}

func TestExplicitMatchesImplicitOnRectifier(t *testing.T) {
	// Cross-engine agreement on the nonlinear multiplier + supercap chain
	// (accuracy parity claim of the paper).
	mk := func() *core.System {
		sys := core.NewSystem()
		sys.AddBlock(NewACSource("src", "Vm", "Im", func(tm float64) float64 {
			return math.Sin(2 * math.Pi * 70 * tm)
		}, 50))
		sys.AddBlock(NewDickson("mult", DefaultDickson(2048)))
		sys.AddBlock(NewSupercap("store", DefaultSupercap()))
		return sys
	}
	var ex, im trace.Series
	sysE := mk()
	e1 := core.NewEngine(sysE)
	e1.Ctl.HMax = 1e-4
	offE := sysE.MustStateOffset("store")
	e1.Observe(func(tm float64, x, y []float64) { ex.Append(tm, x[offE]) })
	if err := e1.Run(0, 3); err != nil {
		t.Fatalf("explicit: %v", err)
	}
	sysI := mk()
	e2 := implicit.NewEngine(sysI, implicit.Trapezoidal)
	e2.Ctl.HMax = 1e-4
	offI := sysI.MustStateOffset("store")
	e2.Observe(func(tm float64, x, y []float64) { im.Append(tm, x[offI]) })
	if err := e2.Run(0, 3); err != nil {
		t.Fatalf("implicit: %v", err)
	}
	cmp := trace.Compare(&ex, &im, 300)
	if cmp.NRMSE > 0.03 {
		t.Fatalf("cross-engine NRMSE = %v (max %v at t=%v)", cmp.NRMSE, cmp.MaxAbs, cmp.AtMax)
	}
}

func TestResistorBlock(t *testing.T) {
	r := NewResistor("r", "V", "I", 100)
	if r.Resistance() != 100 {
		t.Fatalf("Resistance = %v", r.Resistance())
	}
	r.SetResistance(200)
	if r.Resistance() != 200 {
		t.Fatalf("SetResistance failed")
	}
	fy := make([]float64, 1)
	r.EvalNonlinear(0, nil, []float64{10, 0.05}, nil, fy)
	if fy[0] != 0 {
		t.Fatalf("V=10, I=0.05 should satisfy the 200-Ohm relation: %v", fy[0])
	}
}

func TestACSourceWithOutputResistance(t *testing.T) {
	s := NewACSource("s", "V", "I", func(float64) float64 { return 5 }, 10)
	fy := make([]float64, 1)
	// V + Rs*I = Voc: 3 + 10*0.2 = 5.
	s.EvalNonlinear(0, nil, []float64{3, 0.2}, nil, fy)
	if math.Abs(fy[0]) > 1e-12 {
		t.Fatalf("source relation violated: %v", fy[0])
	}
}

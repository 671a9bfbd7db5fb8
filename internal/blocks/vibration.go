// Package blocks implements the component-block models of the tunable
// vibration energy harvesting system (paper Section III): the tunable
// electromagnetic microgenerator (Eq. 13), the N-stage Dickson voltage
// multiplier with piecewise-linear diode tables (Eq. 14, Fig. 5), the
// Zubieta-Bonert three-branch supercapacitor with the mode-switched
// equivalent load resistor (Eqs. 15-16, Fig. 6), and — for the paper's
// generality claim (Section V) — piezoelectric and electrostatic
// microgenerator variants. Helper source/load blocks for unit tests and
// examples are also provided.
//
// All blocks implement core.Block: local state equations plus terminal
// variables, with both a piecewise-linearised view (for the proposed
// explicit engine) and exact nonlinear residuals (for the Newton-Raphson
// baselines).
//
// Blocks carry no hidden nondeterminism: construction from equal
// parameter values yields bit-identical behaviour, and the stochastic
// vibration component is a pure function of its NoiseSpec (seeded
// spectral synthesis, no shared generator state) — the block-level half
// of the determinism contract the harvester package promises and the
// batch layer's result cache depends on.
package blocks

import (
	"fmt"
	"math"
)

// Vibration models the ambient mechanical excitation as the sum of two
// independent components that may each be zero:
//
//   - a deterministic sinusoid whose frequency changes stepwise or chirps
//     but whose phase is continuous across changes (an abrupt phase jump
//     would inject spurious wide-band energy into the resonator), and
//   - an optional band-limited stochastic component (ConfigureNoise) for
//     realistic wideband ambient vibration.
type Vibration struct {
	Amplitude float64 // peak base acceleration of the sinusoid [m/s^2]
	segs      []vibSeg

	noise NoiseSpec // zero value = no stochastic component
	// Realisation of noise, derived from the spec: one column per tone
	// field (angular frequency [rad/s], phase [rad], amplitude [m/s^2]),
	// the layout the tone-sum kernel streams through.
	toneW, tonePhi, toneAmp []float64

	// Single-entry Accel memo: the engines evaluate Accel three to four
	// times per step at the same t (the linearise passes and the
	// observers). Accel is a pure function of (t, Amplitude, profile,
	// noise); the memo is keyed on t and the bits of Amplitude, and
	// every profile or noise mutation invalidates it, so a hit returns
	// the bits a recomputation would.
	memoT   float64 // NaN = empty/invalidated
	memoAmp uint64  // math.Float64bits(Amplitude) of the memoised value
	memoA   float64
}

// NoiseSpec declares a band-limited stochastic excitation: stationary
// Gaussian-like noise of the given RMS acceleration with its power
// spread over [FLo, FHi]. The realisation is synthesised by the spectral
// representation method — Tones sinusoids with frequencies jittered
// uniformly inside equal sub-bands and independent uniform phases — so
// the acceleration stays an analytic function of time that the
// variable-step engines can evaluate at any t without carrying filter
// state.
//
// Seeding contract: the realisation is a pure function of the spec
// (Seed, FLo, FHi, Tones, and nothing else). Equal specs produce
// bit-identical excitations on every assembly, across serial, pooled
// and Reset-reused runs; distinct seeds produce independent
// realisations. The generator is a fixed algorithm (xoshiro256** seeded
// via splitmix64), not math/rand, so the stream never shifts under a
// toolchain upgrade.
type NoiseSpec struct {
	RMS   float64 // RMS base acceleration [m/s^2]; 0 disables the component
	FLo   float64 // band lower edge [Hz]
	FHi   float64 // band upper edge [Hz]
	Tones int     // spectral lines; 0 = DefaultNoiseTones
	Seed  uint64  // realisation seed
}

// DefaultNoiseTones is the tone count a zero NoiseSpec.Tones selects:
// enough lines that no individual tone dominates the band, few enough
// that an Accel evaluation stays a sub-microsecond loop.
const DefaultNoiseTones = 48

// MaxNoiseTones bounds the realisation size: Accel is evaluated several
// times per engine step, so the tone count is a per-step cost knob, not
// a place for unbounded input to allocate gigabytes.
const MaxNoiseTones = 4096

// Enabled reports whether the spec requests a stochastic component.
func (n NoiseSpec) Enabled() bool { return n.RMS != 0 }

// Validate reports whether an enabled spec is synthesisable: ordered
// positive finite band, finite RMS, tone count within [0, MaxNoiseTones]
// (0 selects the default). It is THE definition of spec validity —
// ConfigureNoise panics exactly when it errs, and the harvester's
// Config.Validate wraps it so a bad batch-sweep axis value fails its
// job rather than its worker.
func (n NoiseSpec) Validate() error {
	if !n.Enabled() {
		return nil
	}
	if !(n.FLo > 0 && n.FHi > n.FLo) || math.IsInf(n.FHi, 0) ||
		math.IsNaN(n.RMS) || math.IsInf(n.RMS, 0) {
		return fmt.Errorf("blocks: invalid noise band [%g, %g] Hz (rms %g)",
			n.FLo, n.FHi, n.RMS)
	}
	if n.Tones < 0 || n.Tones > MaxNoiseTones {
		return fmt.Errorf("blocks: noise tone count %d outside [0, %d]",
			n.Tones, MaxNoiseTones)
	}
	return nil
}

type vibSeg struct {
	t0     float64 // segment start time
	freq   float64 // [Hz] at t0
	rate   float64 // [Hz/s] linear chirp rate within the segment
	phase0 float64 // phase at t0 [rad]
}

// NewVibration returns a source with constant frequency f0 (Hz) and the
// given peak acceleration, starting at phase zero.
func NewVibration(amplitude, f0 float64) *Vibration {
	return &Vibration{
		Amplitude: amplitude,
		segs:      []vibSeg{{t0: 0, freq: f0, phase0: 0}},
		memoT:     math.NaN(),
	}
}

// phaseAt evaluates the accumulated phase of segment s at time t.
func (s vibSeg) phaseAt(t float64) float64 {
	dt := t - s.t0
	return s.phase0 + 2*math.Pi*(s.freq*dt+0.5*s.rate*dt*dt)
}

// freqAt evaluates the instantaneous frequency of segment s at time t.
func (s vibSeg) freqAt(t float64) float64 {
	return s.freq + s.rate*(t-s.t0)
}

// addSeg appends a segment starting at t with frequency f and chirp
// rate, keeping the phase continuous.
func (v *Vibration) addSeg(t, f, rate float64) {
	last := v.segs[len(v.segs)-1]
	if t < last.t0 {
		panic(fmt.Sprintf("blocks: vibration profile change at %g precedes %g", t, last.t0))
	}
	phase := last.phaseAt(t)
	seg := vibSeg{t0: t, freq: f, rate: rate, phase0: phase}
	v.memoT = math.NaN()
	if t == last.t0 {
		v.segs[len(v.segs)-1] = seg
		return
	}
	v.segs = append(v.segs, seg)
}

// Reset discards every scheduled frequency change AND any configured
// stochastic component, restarting the source at constant frequency f0
// from phase zero at t=0. All storage (segment slice, tone columns) is
// kept for reuse, so a Reset/ConfigureNoise cycle on a warm source does
// not allocate. Callers that want the noise back after Reset re-apply
// the spec with ConfigureNoise — with an equal spec the regenerated
// realisation is bit-identical (see NoiseSpec).
func (v *Vibration) Reset(f0 float64) {
	v.segs = v.segs[:1]
	v.segs[0] = vibSeg{t0: 0, freq: f0}
	v.noise = NoiseSpec{}
	v.setTones(0)
	v.memoT = math.NaN()
}

// ConfigureNoise adds (or replaces) the band-limited stochastic
// component described by spec, synthesising its realisation
// deterministically from the spec alone. A disabled spec (RMS == 0)
// removes the component. Panics when spec.Validate errs — the same
// contract-violation policy as the segment scheduler; callers that need
// graceful rejection check Validate first.
func (v *Vibration) ConfigureNoise(spec NoiseSpec) {
	v.setTones(0)
	v.memoT = math.NaN()
	v.noise = spec
	if !spec.Enabled() {
		v.noise = NoiseSpec{}
		return
	}
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := spec.Tones
	if n <= 0 {
		n = DefaultNoiseTones
	}
	rng := newXoshiro256(spec.Seed)
	df := (spec.FHi - spec.FLo) / float64(n)
	// Equal power per sub-band: RMS of the sum is sqrt(n * amp^2 / 2).
	amp := math.Abs(spec.RMS) * math.Sqrt(2/float64(n))
	v.setTones(n)
	for k := 0; k < n; k++ {
		f := spec.FLo + (float64(k)+rng.float64())*df
		v.toneW[k] = 2 * math.Pi * f
		v.tonePhi[k] = 2 * math.Pi * rng.float64()
		v.toneAmp[k] = amp
	}
}

// setTones sizes the tone columns to n, reusing their storage when it
// is large enough and otherwise allocating each at exactly n.
func (v *Vibration) setTones(n int) {
	if cap(v.toneW) < n {
		v.toneW = make([]float64, n)
		v.tonePhi = make([]float64, n)
		v.toneAmp = make([]float64, n)
		return
	}
	v.toneW, v.tonePhi, v.toneAmp = v.toneW[:n], v.tonePhi[:n], v.toneAmp[:n]
}

// Noise returns the spec of the configured stochastic component (zero
// value when none).
func (v *Vibration) Noise() NoiseSpec { return v.noise }

// SetFrequency schedules a frequency change at time t (seconds, must not
// precede previously scheduled changes). The phase remains continuous.
func (v *Vibration) SetFrequency(t, f float64) {
	v.addSeg(t, f, 0)
}

// Sweep schedules a phase-continuous linear chirp from the frequency in
// effect at time t to fEnd over the given duration, after which the
// frequency holds at fEnd.
func (v *Vibration) Sweep(t, duration, fEnd float64) {
	if duration <= 0 {
		v.SetFrequency(t, fEnd)
		return
	}
	f0 := v.Freq(t)
	v.addSeg(t, f0, (fEnd-f0)/duration)
	v.addSeg(t+duration, fEnd, 0)
}

// seg returns the active segment at time t.
func (v *Vibration) seg(t float64) vibSeg {
	s := v.segs[0]
	for _, cand := range v.segs[1:] {
		if cand.t0 <= t {
			s = cand
		} else {
			break
		}
	}
	return s
}

// Freq returns the instantaneous excitation frequency at time t [Hz].
func (v *Vibration) Freq(t float64) float64 { return v.seg(t).freqAt(t) }

// Phase returns the accumulated phase at time t [rad].
func (v *Vibration) Phase(t float64) float64 { return v.seg(t).phaseAt(t) }

// Accel returns the base acceleration a(t) [m/s^2]: the sinusoidal
// component plus the stochastic component when one is configured. The
// evaluation is allocation-free — it sits on the engines' per-step hot
// path (linearisation refresh, observer, frequency meter) — and the tone
// sum runs through toneSum, bit-identical to the scalar loop on every
// host.
func (v *Vibration) Accel(t float64) float64 {
	ampBits := math.Float64bits(v.Amplitude)
	if t == v.memoT && ampBits == v.memoAmp {
		return v.memoA
	}
	a := v.Amplitude * math.Sin(v.Phase(t))
	a = toneSum(v.toneW, v.tonePhi, v.toneAmp, t, a)
	v.memoT, v.memoAmp, v.memoA = t, ampBits, a
	return a
}

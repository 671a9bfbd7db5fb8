package batch

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"harvsim/internal/harvester"
)

// TestKeyOfGolden pins the cache keys' bytes: a disk cache written by an
// earlier build must keep hitting, so any change to the canonical
// encoding (tags, field order, prefixes, float bits) or to KeyOf's
// schema line and option tail fails here. A deliberate change, a
// CacheSchemaVersion bump included, updates these keys in the same
// commit and turns every existing disk entry into a miss. The jobs
// reach every kind the encoding has a tag for in a Scenario (bool, int,
// uint, float, slice, nil and non-nil pointer, struct, diode), every
// engine kind, both decimation branches, a non-default settle fraction
// and both MetricKey branches.
func TestKeyOfGolden(t *testing.T) {
	charge := func() Job {
		return Job{Name: "charge", Scenario: harvester.ChargeScenario(2), Engine: harvester.Proposed}
	}
	noise := harvester.NoiseScenario(0.25, 55, 85, 7)
	noise.Cfg.VibNoise.Tones = 1024
	seeded := harvester.NoiseScenario(0.5, 40, 120, 1<<63+5)
	bistable := harvester.BistableScenario(1, harvester.BistableWellM, harvester.BistableBarrierJ,
		150, -2e4, 10, 40, 3)
	metric := charge()
	metric.MetricKey = "final-vc"
	metric.Metric = func(h *harvester.Harvester, _ harvester.Engine) float64 { return 0 }
	stray := charge()
	stray.MetricKey = "final-vc"
	cases := []struct {
		name string
		job  Job
		opt  Options
		want string
	}{
		{"charge", charge(), Options{},
			"363ae29f39e7037c01b826a4120f76a616e42a00b0f31256495f84293a15ba35"},
		{"scenario1 trap dec4", Job{Scenario: harvester.Scenario1(harvester.Quick),
			Engine: harvester.ExistingTrap, Decimate: 4}, Options{},
			"97a370c752f4dba67e19a15dc3fdf34843bd08ebadfcaa7aea42a54df377c334"},
		{"scenario2 paper bdf2", Job{Scenario: harvester.Scenario2(harvester.PaperScale),
			Engine: harvester.ExistingBDF2, Decimate: 1}, Options{},
			"a9553776d0c90d66cd93d74a8e2459a44d41766ab0eca72b77b7cd52eb3b9dab"},
		{"tracking be", Job{Scenario: harvester.TrackingScenario(3, 65, 75),
			Engine: harvester.ExistingBE}, Options{},
			"9b31b2d16d593ab93e7e40246b96ca42d5bb6040f32942330c3a55abdc6ad990"},
		{"noise 1024 tones", Job{Scenario: noise, Seed: 7}, Options{},
			"83d149808a96369efc331ed34e69079dc60bd96f30be51a96a85aa9237e450e4"},
		{"noise high seed", Job{Scenario: seeded, Group: "g", Seed: 1<<63 + 5}, Options{},
			"94be7b3e515a64cb2ad85920eaef64f5196fe8997b2cba9e15bb5c28aff97f8f"},
		{"bistable", Job{Scenario: bistable, Engine: harvester.Proposed}, Options{},
			"1f3605392dd12e117f32fb2f9607e45e35c79521e98dc5d80f3c2daa5d0a4dde"},
		{"duffing trap", Job{Scenario: harvester.DuffingScenario(2, harvester.DuffingK3Moderate),
			Engine: harvester.ExistingTrap}, Options{},
			"68879853fe33b6c3e701744873bc0f592730bda1519b2f76f482265972cf54fa"},
		{"settle 0.25", charge(), Options{SettleFrac: 0.25},
			"135282a6b865165eca621e57e418a04e84eb96def3068b0a487734b1c42ad61b"},
		{"metric key", metric, Options{},
			"bf4febbb55bf2bb9d695e7a2bf49493f5edb16103132ae5a5dbe59d14bac55f0"},
		{"stray metric key", stray, Options{},
			"363ae29f39e7037c01b826a4120f76a616e42a00b0f31256495f84293a15ba35"},
	}
	for _, tc := range cases {
		if got := KeyOf(tc.job, tc.opt).String(); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestKeyTailFloatFormat: KeyOf prints the settle fraction with
// strconv's 'x' format, which must read exactly as the fmt %x the key
// format was defined with.
func TestKeyTailFloatFormat(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3.0, 0.25,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -123.5} {
		if got, want := string(strconv.AppendFloat(nil, f, 'x', -1, 64)), fmt.Sprintf("%x", f); got != want {
			t.Errorf("%v: strconv %q, fmt %q", f, got, want)
		}
	}
}

// TestKeyOfAllocs: a key is one pass over a stack buffer — at most one
// allocation, for an encoding that outgrows it.
func TestKeyOfAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	job := Job{Scenario: harvester.Scenario1(harvester.Quick), Engine: harvester.ExistingTrap}
	opt := Options{SettleFrac: 0.25}
	if n := testing.AllocsPerRun(100, func() { KeyOf(job, opt) }); n > 1 {
		t.Fatalf("KeyOf makes %v allocations, want <= 1", n)
	}
}

var keySink CacheKey

func BenchmarkKeyOf(b *testing.B) {
	job := Job{Scenario: harvester.ChargeScenario(0.5)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = KeyOf(job, Options{})
	}
}

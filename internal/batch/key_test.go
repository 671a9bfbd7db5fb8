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
			"bc04750d267b07d36cc19c59545d61e021ab5f74750ce375b49e53897eb07e98"},
		{"scenario1 trap dec4", Job{Scenario: harvester.Scenario1(harvester.Quick),
			Engine: harvester.ExistingTrap, Decimate: 4}, Options{},
			"91755cf9c38ce297ca911c243a52eb30a42f5d7562db6205db842ae7264b4f7a"},
		{"scenario2 paper bdf2", Job{Scenario: harvester.Scenario2(harvester.PaperScale),
			Engine: harvester.ExistingBDF2, Decimate: 1}, Options{},
			"bc47f6f1211ca68eb5c071f183c9f36f414f2cc3bf2a4f14de0c363f2201dd08"},
		{"tracking be", Job{Scenario: harvester.TrackingScenario(3, 65, 75),
			Engine: harvester.ExistingBE}, Options{},
			"6ef5fc58a295074801b31a46661d437d58c843e5bfd4b8518a7caf930853af7a"},
		{"noise 1024 tones", Job{Scenario: noise, Seed: 7}, Options{},
			"a006fc10ab2becd7a79b07395f43c605732ae6dc3b7225c13d3d57d73045165b"},
		{"noise high seed", Job{Scenario: seeded, Group: "g", Seed: 1<<63 + 5}, Options{},
			"a84c7cb99a48daa7dc29a761a27730584f27fb800e433df6972a0a4ec29c7c4d"},
		{"bistable", Job{Scenario: bistable, Engine: harvester.Proposed}, Options{},
			"b0139986dd3a7d355ab78bd4533d874917c8d8b1a033defc2fc7d3a6bf583078"},
		{"duffing trap", Job{Scenario: harvester.DuffingScenario(2, harvester.DuffingK3Moderate),
			Engine: harvester.ExistingTrap}, Options{},
			"75de71ec15f9daa1a78aec32d674e8e918f269812cbeeb26a68f2c6ca00e828e"},
		{"settle 0.25", charge(), Options{SettleFrac: 0.25},
			"b0ae3319a66334c69c125f4b0fb327f98c71776ce5da5f386eaa6fd83b0fe0fe"},
		{"metric key", metric, Options{},
			"c1048bc2d3e0c0859599852a2fac320d10ccda8f1321d4d06f9d868e2b18105d"},
		{"stray metric key", stray, Options{},
			"bc04750d267b07d36cc19c59545d61e021ab5f74750ce375b49e53897eb07e98"},
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

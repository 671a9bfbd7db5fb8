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
			"399da8207b74a7afceadd6753482fd4cc2db65cdd2b0e54ad12638efa301f12a"},
		{"scenario1 trap dec4", Job{Scenario: harvester.Scenario1(harvester.Quick),
			Engine: harvester.ExistingTrap, Decimate: 4}, Options{},
			"944bbd1b46f01e4d7d4da32ddf275533ebbccf9385b2e9794332dafabd32eaa3"},
		{"scenario2 paper bdf2", Job{Scenario: harvester.Scenario2(harvester.PaperScale),
			Engine: harvester.ExistingBDF2, Decimate: 1}, Options{},
			"365018fe5c652fb4a2d9a57138dd00e81622c717aaab3b957dc470974320ad7c"},
		{"tracking be", Job{Scenario: harvester.TrackingScenario(3, 65, 75),
			Engine: harvester.ExistingBE}, Options{},
			"cee41f24b4c2e286a204ad4f17939cf0a4de069e72955b095b12e36830299d5e"},
		{"noise 1024 tones", Job{Scenario: noise, Seed: 7}, Options{},
			"fb1ea47656088e7ff9b1d7c23c89eaa4b07f9264960ca2471852f21cfba753d3"},
		{"noise high seed", Job{Scenario: seeded, Group: "g", Seed: 1<<63 + 5}, Options{},
			"5e7fe0fab63193920fc40e5961722772f1368b0d04143938afc82ce4c8deafc6"},
		{"bistable", Job{Scenario: bistable, Engine: harvester.Proposed}, Options{},
			"2caacb0123ba58d3086e81a68fd09df77726e7b7c67b0cc2709d5281b2db79a7"},
		{"duffing trap", Job{Scenario: harvester.DuffingScenario(2, harvester.DuffingK3Moderate),
			Engine: harvester.ExistingTrap}, Options{},
			"229ebd99441de3860b25635f91bdecaf1110bbb89b2357a910d41e4071bf4c76"},
		{"settle 0.25", charge(), Options{SettleFrac: 0.25},
			"f92a0a4038ed82fa0e52df25036f3354dbcabbfec6af4aacc043fbb1fe2e8316"},
		{"metric key", metric, Options{},
			"eb2424d17f1b7b7ed1863b3f53efca69a0a247140e39aa4f0d121908b9ed98b3"},
		{"stray metric key", stray, Options{},
			"399da8207b74a7afceadd6753482fd4cc2db65cdd2b0e54ad12638efa301f12a"},
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

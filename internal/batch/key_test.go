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
			"81f4cec8696a6e36a258416df24b4a2e51fb3ea388036836a67cd80ddad1993d"},
		{"scenario1 trap dec4", Job{Scenario: harvester.Scenario1(harvester.Quick),
			Engine: harvester.ExistingTrap, Decimate: 4}, Options{},
			"77caed046267e78957fbae4a0c5c8e83963d257155ae74d01461c7656a24ca03"},
		{"scenario2 paper bdf2", Job{Scenario: harvester.Scenario2(harvester.PaperScale),
			Engine: harvester.ExistingBDF2, Decimate: 1}, Options{},
			"d144995d9a75554ea04aaa14984febfc86f73af03b0f019e92e40d9ce1a7c629"},
		{"tracking be", Job{Scenario: harvester.TrackingScenario(3, 65, 75),
			Engine: harvester.ExistingBE}, Options{},
			"bb13d9589bc5e066e69ebcc543b80e4a2cbd6376c13cdc39c30d9e79291808c3"},
		{"noise 1024 tones", Job{Scenario: noise, Seed: 7}, Options{},
			"efb2e5a32f0272db1b0e99f34b2360225b650a6531a489a7a042b651ae1d39e3"},
		{"noise high seed", Job{Scenario: seeded, Group: "g", Seed: 1<<63 + 5}, Options{},
			"b59217e194e16a3598368057a51c8398b63b9f0489e5bfd208a154e858a0fb51"},
		{"bistable", Job{Scenario: bistable, Engine: harvester.Proposed}, Options{},
			"df38f330209f404b3d93b562e4bb3b619a21e7c035e42bf27976b166adf77906"},
		{"duffing trap", Job{Scenario: harvester.DuffingScenario(2, harvester.DuffingK3Moderate),
			Engine: harvester.ExistingTrap}, Options{},
			"3eb4f17ae17589d5499ee275689b978132671965b73bd916e6d5930efb961d7e"},
		{"settle 0.25", charge(), Options{SettleFrac: 0.25},
			"2defe65c65eed212f11105ddd46f162d5cbb6ef412b41f0079b643e75e1b3086"},
		{"metric key", metric, Options{},
			"3ac57e8f74c77dbd2e3cdcdccddcb6aa083cd194ec288504e01bc53e62e6d0d3"},
		{"stray metric key", stray, Options{},
			"81f4cec8696a6e36a258416df24b4a2e51fb3ea388036836a67cd80ddad1993d"},
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

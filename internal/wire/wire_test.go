package wire

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
)

// keysOf expands a wire spec and returns the content-addressed identity
// of every job, in expansion order.
func keysOf(t *testing.T, spec Spec, opt batch.Options) []batch.CacheKey {
	t.Helper()
	bspec, err := spec.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	jobs, err := bspec.Jobs()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	keys := make([]batch.CacheKey, len(jobs))
	for i, j := range jobs {
		if !batch.Cacheable(j, opt) {
			t.Fatalf("job %d (%s) is not cacheable — wire jobs must be", i, j.Name)
		}
		keys[i] = batch.KeyOf(j, opt)
	}
	return keys
}

// roundTrip encodes and decodes the spec through its JSON wire form.
func roundTrip(t *testing.T, spec Spec) Spec {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// TestRoundTripKeyIdentity is the wire-format pin the server and future
// sharding depend on: decode(encode(spec)) compiles to a job list whose
// batch.KeyOf identities are bit-identical to the original's, for every
// axis kind at once — float (with values that stress shortest-form
// float encoding), int, engine and seed (full-range uint64 base).
func TestRoundTripKeyIdentity(t *testing.T) {
	spec := Spec{
		V:    Version,
		Name: "grid",
		Scenario: Scenario{
			Kind:       "noise",
			DurationS:  0.25,
			NoiseFLoHz: 55,
			NoiseFHiHz: 85,
			NoiseSeed:  Seed(math.MaxUint64 - 12345), // above 2^53: floats would mangle it
			Set:        map[string]float64{"initial_vc": 2.5, "noise.rms": 0.5900000000000001},
		},
		Engine: EngineProposed,
		Metric: MetricPStoreMeanSettled,
		Axes: []Axis{
			{Kind: AxisFloat, Param: "dickson.cstage", Values: []float64{10e-6, 2.2e-5, 4.7e-5, 0.1 + 0.2}},
			{Kind: AxisInt, Param: "dickson.stages", Ints: []int{3, 5}},
			{Kind: AxisEngine, Engines: []string{EngineProposed, EngineBE}},
			{Kind: AxisSeed, BaseSeed: Seed(1)<<63 | 42, Count: 3},
		},
	}
	opt := batch.Options{}

	want := keysOf(t, spec, opt)
	back := roundTrip(t, spec)
	if back.V != Version {
		t.Errorf("version field dropped across round-trip: got v=%d, want v=%d", back.V, Version)
	}
	got := keysOf(t, back, opt)

	// The version is transport metadata, never physics: an unversioned
	// (pre-versioning) spec must compile to the same identities, or a
	// version stamp would invalidate every existing cache entry.
	unversioned := spec
	unversioned.V = 0
	for i, k := range keysOf(t, unversioned, opt) {
		if k != want[i] {
			t.Errorf("job %d: v=0 key differs from v=%d key", i, Version)
		}
	}

	if len(want) != len(got) {
		t.Fatalf("job count changed across round-trip: %d vs %d", len(want), len(got))
	}
	if n := spec.Size(); n != len(want) {
		t.Errorf("Size() = %d, want %d", n, len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("job %d: key changed across round-trip:\n  %s\n  %s", i, want[i], got[i])
		}
	}
}

// TestRoundTripEveryScenarioKind round-trips a minimal spec of each
// scenario kind and checks key identity (single-job specs).
func TestRoundTripEveryScenarioKind(t *testing.T) {
	cases := []Scenario{
		{Kind: "charge", DurationS: 0.25},
		{Kind: "scenario1"},
		{Kind: "scenario1", Fidelity: "paper"},
		{Kind: "scenario2", Fidelity: "quick"},
		{Kind: "duffing", DurationS: 0.25, K3: harvester.DuffingK3Moderate},
		{Kind: "noise", DurationS: 0.25, NoiseFLoHz: 55, NoiseFHiHz: 85, NoiseSeed: 7},
		{Kind: "bistable", DurationS: 0.25, WellM: 5e-4, BarrierJ: 2e-6,
			Xi1: 120, Xi2: -3.4e4, NoiseFLoHz: 8, NoiseFHiHz: 40, NoiseSeed: 7},
		{Kind: "tracking", DurationS: 2, TrackF0Hz: 68, TrackFEndHz: 72},
	}
	for _, sc := range cases {
		t.Run(sc.Kind+sc.Fidelity, func(t *testing.T) {
			spec := Spec{Scenario: sc}
			want := keysOf(t, spec, batch.Options{})
			got := keysOf(t, roundTrip(t, spec), batch.Options{})
			if len(want) != 1 || len(got) != 1 || want[0] != got[0] {
				t.Fatalf("round-trip key mismatch: %v vs %v", want, got)
			}
		})
	}
}

// TestWireMatchesHandBuiltSweep pins that a wire spec compiles to the
// same job identities as the equivalent hand-built batch.SweepSpec with
// closures — the property that lets cmd/sweep's -remote mode hit the
// server's cache entries for sweeps primed locally (and vice versa).
func TestWireMatchesHandBuiltSweep(t *testing.T) {
	wireSpec := Spec{
		Name:     "dickson",
		Scenario: Scenario{Kind: "charge", DurationS: 0.5, Set: map[string]float64{"initial_vc": 2.5}},
		Metric:   MetricPStoreMeanSettled,
		Axes: []Axis{
			{Kind: AxisInt, Param: "dickson.stages", Ints: []int{2, 3}},
			{Kind: AxisFloat, Param: "dickson.cstage", Values: []float64{10e-6, 22e-6}},
		},
	}

	base := harvester.ChargeScenario(0.5)
	base.Cfg.InitialVc = 2.5
	hand := batch.SweepSpec{
		Base: batch.Job{
			Name: "dickson", Scenario: base, Engine: harvester.Proposed,
			MetricKey: MetricPStoreMeanSettled,
			Metric: func(h *harvester.Harvester, eng harvester.Engine) float64 {
				return h.PStoreTrace.Slice(0.5/3, 0.5).Mean()
			},
		},
		Axes: []batch.Axis{
			batch.IntAxis("dickson.stages", []int{2, 3},
				func(j *batch.Job, v int) { j.Scenario.Cfg.Dickson.Stages = v }),
			batch.FloatAxis("dickson.cstage", []float64{10e-6, 22e-6},
				func(j *batch.Job, v float64) { j.Scenario.Cfg.Dickson.CStage = v }),
		},
	}
	handJobs, err := hand.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	opt := batch.Options{}
	wireKeys := keysOf(t, wireSpec, opt)
	if len(wireKeys) != len(handJobs) {
		t.Fatalf("job counts differ: wire %d vs hand-built %d", len(wireKeys), len(handJobs))
	}
	for i := range handJobs {
		if want := batch.KeyOf(handJobs[i], opt); wireKeys[i] != want {
			t.Errorf("job %d: wire key %s != hand-built key %s", i, wireKeys[i], want)
		}
	}
}

// chargeGrid16 is a 16-job charge sweep over two multiplier axes.
func chargeGrid16() Spec {
	return Spec{
		Scenario: Scenario{Kind: "charge", DurationS: 0.5},
		Axes: []Axis{
			{Kind: AxisFloat, Param: "dickson.cstage", Values: []float64{10e-6, 15e-6, 22e-6, 33e-6}},
			{Kind: AxisFloat, Param: "dickson.cout", Values: []float64{100e-6, 150e-6, 220e-6, 330e-6}},
		},
	}
}

// TestCompileSharesDiodeTable: compiling a spec reuses the multiplier
// diode's PWL table rather than rebuilding it, so two compiles of one
// spec, on a coordinator and on its worker alike, hold the same table.
func TestCompileSharesDiodeTable(t *testing.T) {
	a, err := chargeGrid16().Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := chargeGrid16().Compile()
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Base.Scenario.Cfg.Dickson.Diode, b.Base.Scenario.Cfg.Dickson.Diode
	if da.Table() == nil || da.Table() != db.Table() {
		t.Fatalf("two compiles hold tables %p and %p, want one shared table", da.Table(), db.Table())
	}
}

func BenchmarkCompileExpand16(b *testing.B) {
	spec := chargeGrid16()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bspec, err := spec.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bspec.Jobs(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireMatchesHandBuiltBistable pins the same local/remote identity
// property for the bistable workload: the "bistable" wire kind compiles
// to the exact job identity of a hand-built harvester.BistableScenario
// sweep — the pairing cmd/sweep's -bistable flag relies on for shared
// cache entries between local and -remote runs.
func TestWireMatchesHandBuiltBistable(t *testing.T) {
	wireSpec := Spec{
		Name: "bi",
		Scenario: Scenario{Kind: "bistable", DurationS: 0.5,
			WellM: 5e-4, BarrierJ: 2e-6, Xi1: 120, Xi2: -3.4e4,
			NoiseFLoHz: 8, NoiseFHiHz: 40, NoiseSeed: 7,
			Set: map[string]float64{"initial_vc": 2.5}},
		Metric: MetricPStoreMeanSettled,
		Axes: []Axis{
			{Kind: AxisFloat, Param: "microgen.k1", Name: "k1", Values: []float64{-850, -900}},
			{Kind: AxisSeed, Name: "seed", BaseSeed: 7, Count: 2},
		},
	}

	base := harvester.BistableScenario(0.5, 5e-4, 2e-6, 120, -3.4e4, 8, 40, 7)
	base.Cfg.InitialVc = 2.5
	hand := batch.SweepSpec{
		Base: batch.Job{
			Name: "bi", Scenario: base, Engine: harvester.Proposed,
			MetricKey: MetricPStoreMeanSettled,
			Metric: func(h *harvester.Harvester, eng harvester.Engine) float64 {
				return h.PStoreTrace.Slice(0.5/3, 0.5).Mean()
			},
		},
		Axes: []batch.Axis{
			batch.FloatAxis("k1", []float64{-850, -900},
				func(j *batch.Job, v float64) { j.Scenario.Cfg.Microgen.K1 = v }),
			batch.SeedAxis("seed", batch.Seeds(7, 2),
				func(j *batch.Job, s uint64) { j.Scenario.Cfg.VibNoise.Seed = s }),
		},
	}
	handJobs, err := hand.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	opt := batch.Options{}
	wireKeys := keysOf(t, wireSpec, opt)
	if len(wireKeys) != len(handJobs) {
		t.Fatalf("job counts differ: wire %d vs hand-built %d", len(wireKeys), len(handJobs))
	}
	for i := range handJobs {
		if want := batch.KeyOf(handJobs[i], opt); wireKeys[i] != want {
			t.Errorf("job %d: wire key %s != hand-built key %s", i, wireKeys[i], want)
		}
	}
}

// TestSeedJSONSafety: seeds marshal as strings and survive values a
// float64 intermediary would corrupt; numbers are accepted on input.
func TestSeedJSONSafety(t *testing.T) {
	s := Seed(math.MaxUint64)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"18446744073709551615"` {
		t.Fatalf("seed encoded as %s", data)
	}
	var back Seed
	if err := json.Unmarshal(data, &back); err != nil || back != s {
		t.Fatalf("seed round-trip: %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`12345`), &back); err != nil || back != 12345 {
		t.Fatalf("numeric seed: %v, %v", back, err)
	}
}

// TestFloatNonFinite: the Float wrapper encodes non-finite values JSON
// cannot hold and round-trips them.
func TestFloatNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.1, -1e-300} {
		data, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back Float
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if math.IsNaN(v) != math.IsNaN(float64(back)) ||
			(!math.IsNaN(v) && float64(back) != v) {
			t.Errorf("%v round-tripped to %v (%s)", v, back, data)
		}
	}
}

// TestValidationErrors: malformed specs are rejected with telling
// errors, not compiled into surprising sweeps.
func TestValidationErrors(t *testing.T) {
	cases := map[string]Spec{
		"future wire version": {V: Version + 1, Scenario: Scenario{Kind: "charge", DurationS: 1}},
		"unknown kind":        {Scenario: Scenario{Kind: "warp", DurationS: 1}},
		"missing duration":    {Scenario: Scenario{Kind: "charge"}},
		"unknown engine":      {Scenario: Scenario{Kind: "charge", DurationS: 1}, Engine: "spice"},
		"unknown metric":      {Scenario: Scenario{Kind: "charge", DurationS: 1}, Metric: "vibes"},
		"unknown param":       {Scenario: Scenario{Kind: "charge", DurationS: 1, Set: map[string]float64{"dickson.stagecoach": 3}}},
		"fractional int set":  {Scenario: Scenario{Kind: "charge", DurationS: 1, Set: map[string]float64{"dickson.stages": 2.5}}},
		"bad fidelity":        {Scenario: Scenario{Kind: "scenario1", Fidelity: "medium"}},
		"negative decimate":   {Scenario: Scenario{Kind: "charge", DurationS: 1}, Decimate: -1},
		"empty float axis": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: AxisFloat, Param: "microgen.k3"}}},
		"int param on float axis": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: AxisFloat, Param: "dickson.stages", Values: []float64{1}}}},
		"float param on int axis": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: AxisInt, Param: "microgen.k3", Ints: []int{1}}}},
		"seed axis without count": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: AxisSeed, BaseSeed: 1}}},
		"unknown axis kind": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: "logarithmic"}}},
		"unknown axis engine": {Scenario: Scenario{Kind: "charge", DurationS: 1},
			Axes: []Axis{{Kind: AxisEngine, Engines: []string{"spice"}}}},
	}
	for name, spec := range cases {
		if _, err := spec.Compile(); err == nil {
			t.Errorf("%s: Compile accepted the spec", name)
		}
	}
}

// TestVersionCheck pins the compatibility rule: v==0 (pre-versioning)
// and v==Version compile; any other version is rejected with an error
// that unwraps to ErrUnsupportedVersion (the hook front-ends map onto
// the "unsupported_version" envelope code).
func TestVersionCheck(t *testing.T) {
	base := Spec{Scenario: Scenario{Kind: "charge", DurationS: 1}}
	for _, v := range []int{0, Version} {
		s := base
		s.V = v
		if err := s.CheckVersion(); err != nil {
			t.Errorf("v=%d rejected: %v", v, err)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("v=%d failed to compile: %v", v, err)
		}
	}
	for _, v := range []int{-1, Version + 1, 99} {
		s := base
		s.V = v
		err := s.CheckVersion()
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("v=%d: CheckVersion = %v, want ErrUnsupportedVersion", v, err)
		}
		if _, err := s.Compile(); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("v=%d: Compile = %v, want ErrUnsupportedVersion", v, err)
		}
	}
}

// TestErrorEnvelopeShape pins the canonical error envelope JSON layout
// every non-2xx response carries: {"error":{"code","message","retryable"}}.
func TestErrorEnvelopeShape(t *testing.T) {
	data, err := json.Marshal(Errorf(CodeTooManyJobs, false, "sweep would expand to %d jobs", 1000000))
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			Retryable *bool  `json:"retryable"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Error.Code != CodeTooManyJobs || decoded.Error.Message == "" || decoded.Error.Retryable == nil {
		t.Fatalf("envelope %s missing canonical fields", data)
	}
}

// TestBatchResultRoundTrip: BatchResultOf inverts ResultOf over the
// wire-carried fields, bit-exactly for the metric floats — what lets a
// remote client and the coordinator reduce summaries identically to a
// local run.
func TestBatchResultRoundTrip(t *testing.T) {
	in := batch.Result{
		Index: 7, Name: "grid[stages=4]",
		Job:       batch.Job{Name: "grid[stages=4]", Group: "grid", Seed: 42},
		Key:       "abc123",
		Elapsed:   1500 * time.Microsecond,
		FinalVc:   2.5000000000000004,
		RMSPower:  1e-6,
		MeanPower: 0.1 + 0.2,
		Metric:    3.3e-7,
		Cached:    true,
		Shared:    true,
	}
	in.Stats.Steps = 1234
	in.Transits, in.SettledTransits, in.FinalBasin = 17, 11, -1
	out := BatchResultOf(ResultOf(in))
	if out.Index != in.Index || out.Name != in.Name || out.Key != in.Key ||
		out.Job.Group != in.Job.Group || out.Job.Seed != in.Job.Seed ||
		out.Elapsed != in.Elapsed || out.FinalVc != in.FinalVc ||
		out.RMSPower != in.RMSPower || out.MeanPower != in.MeanPower ||
		out.Metric != in.Metric || out.Cached != in.Cached || out.Shared != in.Shared ||
		out.Stats.Steps != in.Stats.Steps || out.Err != nil ||
		out.Transits != in.Transits || out.SettledTransits != in.SettledTransits ||
		out.FinalBasin != in.FinalBasin {
		t.Fatalf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	// The basin fields must survive the JSON encoding too (a negative
	// FinalBasin exercises the signed field), and reduce into the wire
	// summary's basin counters.
	line, err := json.Marshal(ResultOf(in))
	if err != nil {
		t.Fatal(err)
	}
	var wr Result
	if err := json.Unmarshal(line, &wr); err != nil {
		t.Fatal(err)
	}
	if got := BatchResultOf(wr); got.Transits != 17 || got.SettledTransits != 11 || got.FinalBasin != -1 {
		t.Fatalf("basin fields lost across JSON: %+v", got)
	}
	sum := SummaryOf([]batch.Result{in}, 0)
	if sum.Transits != 17 || sum.HighOrbit != 1 {
		t.Fatalf("summary basin counters: transits %d, high-orbit %d", sum.Transits, sum.HighOrbit)
	}
	in.Err = errors.New("boom")
	if out := BatchResultOf(ResultOf(in)); out.Err == nil || out.Err.Error() != "boom" {
		t.Fatalf("error not carried: %v", out.Err)
	}
}

// TestSizeSaturates: Size never overflows (it is the pre-compilation
// budget check, so it must stay truthful for hostile axis products) and
// ignores axes Compile would reject.
func TestSizeSaturates(t *testing.T) {
	s := Spec{Axes: []Axis{
		{Kind: AxisSeed, Count: math.MaxInt / 2},
		{Kind: AxisInt, Param: "dickson.stages", Ints: []int{1, 2, 3}},
	}}
	if got := s.Size(); got != math.MaxInt {
		t.Errorf("overflowing product: Size = %d, want MaxInt", got)
	}
	s = Spec{Axes: []Axis{
		{Kind: AxisSeed, Count: -5},
		{Kind: "bogus"},
		{Kind: AxisInt, Param: "dickson.stages", Ints: []int{1, 2, 3}},
	}}
	if got := s.Size(); got != 3 {
		t.Errorf("invalid axes: Size = %d, want 3", got)
	}
}

// TestEngineNames: every kind's short name resolves back, and the long
// String() forms are accepted.
func TestEngineNames(t *testing.T) {
	kinds := []harvester.EngineKind{
		harvester.Proposed, harvester.ExistingTrap,
		harvester.ExistingBDF2, harvester.ExistingBE,
	}
	for _, k := range kinds {
		if got, err := EngineFromName(EngineName(k)); err != nil || got != k {
			t.Errorf("short name of %v: got %v, %v", k, got, err)
		}
		if got, err := EngineFromName(k.String()); err != nil || got != k {
			t.Errorf("long name of %v: got %v, %v", k, got, err)
		}
	}
}

// TestNonFiniteResultStreamSafe pins the NDJSON audit for ensemble
// statistics: a NaN or ±Inf metric in a batch Result (or a summary's
// MaxMetric) must survive the wire encode/decode round trip rather than
// making json.Marshal fail — which would silently drop a stream line or
// kill the stream mid-sweep. All metric fields are wire.Float, whose
// codec turns non-finite values into the strings "NaN"/"+Inf"/"-Inf";
// this test exists so a field can never quietly regress to a raw
// float64.
func TestNonFiniteResultStreamSafe(t *testing.T) {
	r := batch.Result{
		Index:     3,
		Name:      "nan-case",
		Metric:    math.NaN(),
		RMSPower:  math.Inf(1),
		MeanPower: math.Inf(-1),
		FinalVc:   math.NaN(),
	}
	line, err := json.Marshal(ResultOf(r))
	if err != nil {
		t.Fatalf("marshal non-finite result: %v", err)
	}
	var back Result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("unmarshal non-finite result: %v", err)
	}
	if !math.IsNaN(float64(back.Metric)) {
		t.Errorf("Metric round trip: got %v, want NaN", back.Metric)
	}
	if !math.IsInf(float64(back.RMSPower), 1) {
		t.Errorf("RMSPower round trip: got %v, want +Inf", back.RMSPower)
	}
	if !math.IsInf(float64(back.MeanPower), -1) {
		t.Errorf("MeanPower round trip: got %v, want -Inf", back.MeanPower)
	}
	if !math.IsNaN(float64(back.FinalVc)) {
		t.Errorf("FinalVc round trip: got %v, want NaN", back.FinalVc)
	}

	// A summary over non-finite metrics must encode too. (All jobs
	// successful, so MaxMetric keeps whatever the metric extremum is.)
	sum := SummaryOf([]batch.Result{r}, 0)
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("marshal summary over non-finite metrics: %v", err)
	}
}

package harvester

import (
	"crypto/sha256"
	"math"
	"reflect"
	"testing"

	"harvsim/internal/blocks"
)

// scenarioHash reduces AppendHash output to a comparable digest.
func scenarioHash(sc Scenario) [sha256.Size]byte {
	return sha256.Sum256(sc.AppendHash(nil))
}

// hashBase builds a fresh, fully populated scenario for hashing tests
// (noise spec set so the stochastic fields are exercised by the
// coverage walk). Every call constructs its own diode, so perturbing
// one copy can never alias another.
func hashBase() Scenario {
	sc := ChargeScenario(2)
	sc.Cfg.VibNoise = blocks.NoiseSpec{RMS: 0.59, FLo: 55, FHi: 85, Tones: 48, Seed: 7}
	return sc
}

func TestScenarioHashDeterministic(t *testing.T) {
	a, b := hashBase(), hashBase()
	if scenarioHash(a) != scenarioHash(b) {
		t.Fatal("two identically built scenarios hash differently")
	}
	if scenarioHash(a) != scenarioHash(a.Clone()) {
		t.Fatal("Clone changes the hash")
	}
}

func TestScenarioHashIgnoresName(t *testing.T) {
	a, b := hashBase(), hashBase()
	b.Name = "completely-different-label"
	if scenarioHash(a) != scenarioHash(b) {
		t.Fatal("scenario Name leaked into the physics hash")
	}
}

func TestScenarioHashCoversScheduleKnobs(t *testing.T) {
	base := scenarioHash(hashBase())
	mut := map[string]func(sc *Scenario){
		"Duration":      func(sc *Scenario) { sc.Duration += 1 },
		"Shifts add":    func(sc *Scenario) { sc.Shifts = append(sc.Shifts, FreqShift{T: 1, Hz: 71}) },
		"Chirp non-nil": func(sc *Scenario) { sc.Chirp = &ChirpSpec{T0: 0.5, Duration: 1, FEnd: 72} },
	}
	for name, f := range mut {
		sc := hashBase()
		f(&sc)
		if scenarioHash(sc) == base {
			t.Errorf("%s does not change the hash", name)
		}
	}
	// Shift ordering is physical (two shifts swap which frequency wins).
	two := hashBase()
	two.Shifts = []FreqShift{{T: 0.5, Hz: 71}, {T: 1, Hz: 72}}
	swapped := hashBase()
	swapped.Shifts = []FreqShift{{T: 1, Hz: 72}, {T: 0.5, Hz: 71}}
	if scenarioHash(two) == scenarioHash(swapped) {
		t.Error("shift order does not change the hash")
	}
}

// visitLeaves walks every settable exported leaf (bool, int, uint,
// float, string) of v in a fixed depth-first order — the same traversal
// shape the hasher uses — and calls fn on each. It mirrors hash.go's
// skip rules: unexported fields are ignored, nil pointers are leaves of
// their own (handled by the schedule-knob test above).
func visitLeaves(v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		fn(path, v)
	case reflect.Pointer:
		if !v.IsNil() {
			visitLeaves(v.Elem(), path, fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			visitLeaves(v.Index(i), path, fn)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			visitLeaves(v.Field(i), path+"."+t.Field(i).Name, fn)
		}
	}
}

// perturbLeaf changes the leaf's value by at least one bit.
func perturbLeaf(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			v.SetFloat(12345.678) // Nextafter is a no-op on non-finite values
		} else {
			v.SetFloat(math.Nextafter(f, math.Inf(1)))
		}
	case reflect.String:
		v.SetString(v.String() + "x")
	}
}

// TestScenarioHashCoversEveryConfigField is the reflection-based
// field-coverage guarantee: perturbing ANY exported leaf field reachable
// from Config — including fields added after this test was written —
// must change the hash. A new Config (or nested parameter struct) field
// therefore cannot silently miss the cache key; if it is intentionally
// non-physical it must be unexported or the hasher must learn about it
// explicitly.
func TestScenarioHashCoversEveryConfigField(t *testing.T) {
	var leaves []string
	enum := hashBase()
	visitLeaves(reflect.ValueOf(&enum.Cfg).Elem(), "Config",
		func(p string, _ reflect.Value) { leaves = append(leaves, p) })
	if len(leaves) < 30 {
		t.Fatalf("coverage walk found only %d leaves; walker broken?", len(leaves))
	}
	// The bistable knobs must be visible to the walk (and hence to the
	// hasher): if one of these were unexported or pruned, two design
	// points differing only in well shape or coupling correction would
	// collide in the sweep cache.
	seen := make(map[string]bool, len(leaves))
	for _, p := range leaves {
		seen[p] = true
	}
	for _, p := range []string{
		"Config.Microgen.K1", "Config.Microgen.K3", "Config.Microgen.Z0",
		"Config.Microgen.Xi1", "Config.Microgen.Xi2",
	} {
		if !seen[p] {
			t.Errorf("%s not reachable by the coverage walk — bistable knob missing from the cache key", p)
		}
	}
	base := scenarioHash(hashBase())
	for i, path := range leaves {
		sc := hashBase()
		j := 0
		visitLeaves(reflect.ValueOf(&sc.Cfg).Elem(), "Config",
			func(_ string, leaf reflect.Value) {
				if j == i {
					perturbLeaf(leaf)
				}
				j++
			})
		if scenarioHash(sc) == base {
			t.Errorf("perturbing %s does not change the hash — field missing from the cache key", path)
		}
	}
	t.Logf("hash coverage verified over %d Config leaf fields", len(leaves))
}

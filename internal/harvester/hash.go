package harvester

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"harvsim/internal/pwl"
)

// This file defines the stable content hash of a scenario — the job
// identity the batch layer's result cache is keyed on. The encoding is
// canonical and collision-safe by construction:
//
//   - every value is prefixed with a kind tag, so values of different
//     kinds can never collide;
//   - all variable-length data (strings, slices, struct field sets) is
//     length- or name-prefixed, so concatenation ambiguities cannot
//     arise;
//   - structs contribute their type name and every *exported* field,
//     name first, walked recursively via reflection — a field added to
//     Config (or any nested parameter struct) is hashed automatically,
//     and renaming a type or field changes the hash, which is exactly
//     the conservative behaviour a physics cache wants;
//   - floats are encoded as their IEEE-754 bit patterns, never through a
//     decimal formatting round-trip: the cache promises bit-identical
//     results, so two configs are "equal" only when every float is
//     bit-equal (+0/-0 and different NaN payloads are deliberately
//     distinct).
//
// Unexported fields are skipped: a Config's identity is its exported
// surface (derived data such as the diode's PWL table is a deterministic
// function of it). The one pointer type Config carries,
// *pwl.Diode, is special-cased so the derived table's granularity — set
// at construction, not stored in an exported field — still enters the
// hash. Kinds with no canonical encoding (func, map, chan, interface)
// panic, so a new field of such a type cannot silently bypass the hash.

// Encoding kind tags. The values are part of the hash format: reordering
// or reusing them changes every key, which is safe (a full cache miss),
// but gratuitous — append new tags instead.
const (
	tagBool byte = iota + 1
	tagInt
	tagUint
	tagFloat
	tagString
	tagSlice
	tagPtrNil
	tagPtr
	tagStruct
	tagDiode
)

var diodeType = reflect.TypeOf((*pwl.Diode)(nil))

// structPlan is the constant part of a struct type's encoding, built
// once per type: the struct tag and type name, then each exported
// field's index and length-prefixed name.
type structPlan struct {
	head   []byte
	fields []fieldPlan
}

type fieldPlan struct {
	index int
	name  []byte
}

// plans caches one structPlan per struct type. It is bounded by the
// struct types reachable from a Scenario, a set fixed by the code.
var plans sync.Map // reflect.Type -> *structPlan

func planOf(t reflect.Type) *structPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*structPlan)
	}
	p := &structPlan{head: appendStr([]byte{tagStruct}, t.String())}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			p.fields = append(p.fields, fieldPlan{index: i, name: appendStr(nil, f.Name)})
		}
	}
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*structPlan)
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendStr(b []byte, s string) []byte { return append(appendU64(b, uint64(len(s))), s...) }

// appendValue appends v's canonical encoding to b.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		var u uint64
		if v.Bool() {
			u = 1
		}
		return appendU64(append(b, tagBool), u)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendU64(append(b, tagInt), uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return appendU64(append(b, tagUint), v.Uint())
	case reflect.Float32, reflect.Float64:
		return appendF64(append(b, tagFloat), v.Float())
	case reflect.String:
		return appendStr(append(b, tagString), v.String())
	case reflect.Slice, reflect.Array:
		b = appendU64(append(b, tagSlice), uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.Type() == diodeType {
			// UnsafePointer, unlike Interface, does not make the walked
			// scenario escape to the heap; the type check makes the
			// conversion exact.
			return appendDiode(b, (*pwl.Diode)(v.UnsafePointer()))
		}
		if v.IsNil() {
			return append(b, tagPtrNil)
		}
		return appendValue(append(b, tagPtr), v.Elem())
	case reflect.Struct:
		p := planOf(v.Type())
		b = append(b, p.head...)
		for _, f := range p.fields {
			b = appendValue(append(b, f.name...), v.Field(f.index))
		}
		return b
	default:
		panic(fmt.Sprintf("harvester: no canonical hash encoding for kind %s (%s) — "+
			"extend hash.go before adding such a field to a cached config", v.Kind(), v.Type()))
	}
}

// appendDiode encodes the diode model's physical parameters plus the
// cell count its companion table was built from (fixed at BuildTable
// time, it changes the simulated physics but lives in an unexported
// field). The cell count, not the segment count, names the table: two
// grids can merge down to the same number of segments.
func appendDiode(b []byte, d *pwl.Diode) []byte {
	b = append(b, tagDiode)
	if d == nil {
		return appendU64(b, 0)
	}
	b = appendU64(b, 1)
	b = appendF64(b, d.Is)
	b = appendF64(b, d.NVt)
	b = appendF64(b, d.Rs)
	cells := 0
	if t := d.Table(); t != nil {
		cells = t.NumCells()
	}
	return appendU64(b, uint64(cells))
}

// AppendHash appends the canonical, collision-safe encoding of the
// scenario's physics identity to b and returns the extended buffer —
// everything that determines the simulated trajectory: the full Config
// (all exported fields, recursively, floats bit-exact), the horizon,
// the scheduled frequency shifts and the chirp. The scenario Name is
// deliberately excluded: it labels results, it does not change physics,
// so two identically configured jobs with different names share one
// cache entry. The caller hashes the bytes; the batch layer's cache key
// hashes them once, together with its own prefix and suffix.
//
// The determinism contract this leans on: a run is a pure function of
// its (Config, Scenario schedule, engine, solver) tuple — equal inputs
// produce bit-identical trajectories across serial, pooled and
// workspace-reused executions (pinned by the root determinism suite).
func (sc *Scenario) AppendHash(b []byte) []byte {
	b = appendStr(b, "harvsim/scenario")
	b = appendValue(b, reflect.ValueOf(&sc.Cfg).Elem())
	b = appendF64(append(b, tagFloat), sc.Duration)
	b = appendValue(b, reflect.ValueOf(&sc.Shifts).Elem())
	return appendValue(b, reflect.ValueOf(sc.Chirp))
}

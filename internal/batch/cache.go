package batch

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"harvsim/internal/harvester"
)

// CacheSchemaVersion stamps every cache key and on-disk entry with the
// current physics/result schema. Bump it whenever an engine, block model
// or Result field change makes previously computed results incomparable
// with fresh ones — old entries then miss (in memory, the key itself
// changes) or are counted stale and ignored (on disk), so a cache can
// never serve outdated physics.
//
// v2: Snapshot gained the bistable basin fields (Transits,
// SettledTransits, FinalBasin) — a v1 entry replayed under v2 would
// report a bistable run as transit-free.
//
// v3: the multiplier diode's table merges its flat reverse-bias cells
// into chord segments, which moves result bits wherever a diode goes
// below −0.208 V; and Config lost the unread PWLSegments field.
//
// v4: the proposed engine memoises its stability analysis within a run,
// and a repeated Jacobian reuses the caps computed under the balancing
// scales of its first sight, which moves result bits of every run that
// repeats one (the memo's constants, its 32-entry key cap and its table
// size, are part of this version); FinalVc and the Vc the MCU reads
// come from the latest observed point instead of the decimated trace;
// and EngineStats gained StabilityReused.
//
// v5: the stability memo's key is the run's whole varying set instead of
// at most its first 32 entries, so runs whose set outgrows 32 entries (a
// multiplier of 7 or more stages) reuse the caps of repeated Jacobians
// too, and move result bits; runs within 32 entries keep theirs.
const CacheSchemaVersion = 5

// cacheSchema is the full stamp written into disk entries and mixed into
// every key.
var cacheSchema = fmt.Sprintf("harvsim-result-cache/v%d", CacheSchemaVersion)

// CacheKey is the content-addressed identity of a job under the options
// that affect its Result: a collision-safe SHA-256 over the canonical
// encoding of (schema version, Config, scenario schedule, engine kind,
// trace decimation, settle fraction, metric key). See
// harvester.Scenario.AppendHash for the encoding contract.
type CacheKey [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk file stem).
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// Cacheable reports whether a job's Result is reproducible from its
// value-typed identity alone, and therefore may be served from and
// stored into a cache:
//
//   - Options.Keep retains the live Harvester/Engine, which a cache hit
//     cannot supply — bypass;
//   - a Probe hook exists to cause side effects during the run — bypass;
//   - a custom Metric closure is opaque; it only participates when the
//     job declares it pure and names it via Job.MetricKey.
func Cacheable(job Job, opt Options) bool {
	if opt.Keep || job.Probe != nil {
		return false
	}
	if job.Metric != nil && job.MetricKey == "" {
		return false
	}
	return true
}

// Keys returns the stable key string of every job under opt — the
// lowercase-hex content address for cacheable jobs, "" for jobs whose
// identity cannot be captured by value (see Cacheable). The shard
// coordinator hashes these strings to place jobs on workers, so a
// design point always lands where its disk-cache entry lives.
func Keys(jobs []Job, opt Options) []string {
	keys := make([]string, len(jobs))
	for i, job := range jobs {
		if Cacheable(job, opt) {
			keys[i] = KeyOf(job, opt).String()
		}
	}
	return keys
}

// KeyOf computes the job's cache key under opt. Jobs with equal keys
// produce bit-identical Results (the determinism contract the root
// determinism suite pins); labels — Job.Name, Job.Group, Job.Seed,
// Scenario.Name — are excluded, so identically configured jobs share an
// entry regardless of how a sweep named them.
//
// The key hashes one buffer: the schema line, the scenario's canonical
// encoding, then the engine/decimation/settle/metric tail. The buffer
// starts on the stack, so a key costs at most one allocation (when an
// encoding outgrows it). TestKeyOfGolden pins the bytes.
func KeyOf(job Job, opt Options) CacheKey {
	var stack [keyBufSize]byte
	b := append(append(stack[:0], cacheSchema...), '\n')
	b = job.Scenario.AppendHash(b)
	dec := job.Decimate
	if dec == 0 {
		dec = DefaultDecimate
	}
	// MetricKey is documented as ignored without a Metric closure: a
	// stray label must not split otherwise-identical jobs across entries.
	mk := job.MetricKey
	if job.Metric == nil {
		mk = ""
	}
	// The tail must read as "engine=%d dec=%d settle=%x metric=%d:%s",
	// the format stored keys were made with: strconv's 'x' format with
	// precision -1 prints fmt's %x for a float64, NaN and the infinities
	// included (TestKeyTailFloatFormat).
	b = strconv.AppendInt(append(b, "engine="...), int64(job.Engine), 10)
	b = strconv.AppendInt(append(b, " dec="...), int64(dec), 10)
	b = strconv.AppendFloat(append(b, " settle="...), opt.settleFrac(), 'x', -1, 64)
	b = strconv.AppendInt(append(b, " metric="...), int64(len(mk)), 10)
	b = append(append(b, ':'), mk...)
	return sha256.Sum256(b)
}

// keyBufSize holds a default Config's encoding (about 1.5 KB) with room
// for the schedule and tail, so KeyOf's buffer stays on the stack.
const keyBufSize = 4096

// Snapshot is the value-typed slice of a Result a cache stores: every
// field that is a pure function of the job identity. Elapsed records the
// original compute cost (informational; a hit's Result.Elapsed is the
// lookup time, not this).
type Snapshot struct {
	FinalVc         float64          `json:"final_vc"`
	FinalState      []float64        `json:"final_state"`
	RMSPower        float64          `json:"rms_power"`
	MeanPower       float64          `json:"mean_power"`
	Metric          float64          `json:"metric"`
	Energy          harvester.Energy `json:"energy"`
	Stats           EngineStats      `json:"stats"`
	Transits        int              `json:"transits,omitempty"`
	SettledTransits int              `json:"settled_transits,omitempty"`
	FinalBasin      int              `json:"final_basin,omitempty"`
	Elapsed         time.Duration    `json:"elapsed_ns"`
}

// snapshotOf extracts the cacheable slice of a successful result.
func snapshotOf(r Result) Snapshot {
	return Snapshot{
		FinalVc:         r.FinalVc,
		FinalState:      r.FinalState,
		RMSPower:        r.RMSPower,
		MeanPower:       r.MeanPower,
		Metric:          r.Metric,
		Energy:          r.Energy,
		Stats:           r.Stats,
		Transits:        r.Transits,
		SettledTransits: r.SettledTransits,
		FinalBasin:      r.FinalBasin,
		Elapsed:         r.Elapsed,
	}
}

// fill copies the snapshot into a result shell (Index/Name/Job already
// set by the caller). FinalState is copied so a caller mutating its
// result cannot corrupt the shared cache entry.
func (s Snapshot) fill(r *Result) {
	r.FinalVc = s.FinalVc
	r.FinalState = append([]float64(nil), s.FinalState...)
	r.RMSPower = s.RMSPower
	r.MeanPower = s.MeanPower
	r.Metric = s.Metric
	r.Energy = s.Energy
	r.Stats = s.Stats
	r.Transits = s.Transits
	r.SettledTransits = s.SettledTransits
	r.FinalBasin = s.FinalBasin
}

// CacheStats is a point-in-time counter snapshot. Hits includes
// DiskHits (a disk hit is promoted into memory and counted in both);
// Shared lookups were first counted as Misses (the miss is what sent
// them into the in-flight wait).
type CacheStats struct {
	Hits      int64 // lookups served from the cache
	Misses    int64 // lookups that fell through to a fresh run
	Stale     int64 // disk entries ignored: wrong schema/arch/key or unreadable
	DiskHits  int64 // hits satisfied by the on-disk store
	Shared    int64 // misses resolved by in-flight dedup: waited on, or arrived just behind, an identical run
	Evictions int64 // in-memory entries dropped by the LRU capacity bound
	Entries   int   // current in-memory entry count
}

// Cache is a content-addressed store of simulation Results: an
// in-memory LRU, optionally backed by an on-disk directory so refinement
// sweeps get warm starts across processes. All methods are safe for
// concurrent use — the batch runner's workers share one cache, and a
// long-lived front-end shares one across every request. Workers racing
// on the same missing key are deduplicated in flight: the first runs the
// simulation, the rest wait for its snapshot (see flightDo; surfaced as
// Result.Shared and CacheStats.Shared).
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[CacheKey]*list.Element
	dir     string
	stats   CacheStats

	// In-flight computations, keyed like the entries; see flightDo.
	// Guarded by its own mutex so waiters never hold up lookups.
	flightMu sync.Mutex
	flight   map[CacheKey]*flightCall
}

type cacheEntry struct {
	key  CacheKey
	snap Snapshot
}

// DefaultCacheCapacity bounds the in-memory entry count when NewCache is
// given a non-positive capacity.
const DefaultCacheCapacity = 4096

// NewCache returns an in-memory LRU cache holding up to capacity entries
// (<= 0 selects DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[CacheKey]*list.Element),
	}
}

// NewDiskCache returns an LRU cache backed by dir: every Put also writes
// a JSON entry file, and a memory miss falls back to the directory
// before declaring a full miss. Entries from other schema versions or
// architectures are ignored (counted Stale), never served: results are
// bit-exact per (schema, GOARCH) and the stamp is checked on read.
func NewDiskCache(capacity int, dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("batch: cache dir: %w", err)
	}
	c := NewCache(capacity)
	c.dir = dir
	return c, nil
}

// Dir returns the on-disk directory, or "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// Get looks the key up, first in memory, then (for disk-backed caches)
// on disk; a disk hit is promoted into the LRU. Disk I/O happens
// outside the mutex so pooled workers never serialise on each other's
// file reads; two workers racing on the same file both succeed.
func (c *Cache) Get(key CacheKey) (Snapshot, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		snap := el.Value.(*cacheEntry).snap
		c.mu.Unlock()
		return snap, true
	}
	if c.dir == "" {
		c.stats.Misses++
		c.mu.Unlock()
		return Snapshot{}, false
	}
	c.mu.Unlock()

	snap, ok, stale := c.readDisk(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if stale {
		c.stats.Stale++
	}
	if !ok {
		c.stats.Misses++
		return Snapshot{}, false
	}
	c.insert(key, snap)
	c.stats.Hits++
	c.stats.DiskHits++
	return snap, true
}

// peek reports a memory-resident entry without touching the hit/miss
// counters — the re-probe flightDo performs after a caller's counted
// miss, before it commits to leading a fresh run.
func (c *Cache) peek(key CacheKey) (Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).snap, true
	}
	return Snapshot{}, false
}

// Put stores the snapshot under key, evicting least-recently-used
// entries beyond capacity and (for disk-backed caches) persisting it.
// The disk write happens outside the mutex.
func (c *Cache) Put(key CacheKey, snap Snapshot) {
	c.mu.Lock()
	c.insert(key, snap)
	c.mu.Unlock()
	if c.dir != "" {
		c.writeDisk(key, snap)
	}
}

// insert adds or refreshes the in-memory entry. Caller holds mu.
func (c *Cache) insert(key CacheKey, snap Snapshot) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).snap = snap
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, snap: snap})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// diskEntry is the persisted envelope. Schema, GoArch and Key guard
// against stale physics, cross-architecture float drift and renamed
// files respectively; any mismatch makes the entry stale. Floats
// round-trip bit-exactly through Go's JSON encoding (shortest
// representation that parses back to the same value); non-finite floats
// do not — Results containing them are simply not persisted.
type diskEntry struct {
	Schema string   `json:"schema"`
	GoArch string   `json:"goarch"`
	Key    string   `json:"key"`
	Snap   Snapshot `json:"result"`
}

func (c *Cache) entryPath(key CacheKey) string {
	return filepath.Join(c.dir, key.String()+".json")
}

// readDisk loads and validates an entry file, without touching cache
// state (runs outside the mutex; the caller accounts stale). Unreadable,
// corrupt, wrong-version, wrong-architecture or mislabelled files are
// reported stale and best-effort removed, so one refresh self-heals the
// store.
func (c *Cache) readDisk(key CacheKey) (snap Snapshot, ok, stale bool) {
	path := c.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, false, !os.IsNotExist(err)
	}
	var e diskEntry
	if json.Unmarshal(data, &e) != nil ||
		e.Schema != cacheSchema || e.GoArch != runtime.GOARCH || e.Key != key.String() {
		os.Remove(path)
		return Snapshot{}, false, true
	}
	return e.Snap, true, false
}

// writeDisk persists an entry atomically (temp file + rename), so a
// concurrent reader never sees a torn write. Failures are silent: the
// disk store is an accelerator, not a source of truth. Runs outside the
// mutex; racing writers of one key rename bit-identical contents.
func (c *Cache) writeDisk(key CacheKey, snap Snapshot) {
	e := diskEntry{Schema: cacheSchema, GoArch: runtime.GOARCH, Key: key.String(), Snap: snap}
	data, err := json.Marshal(e)
	if err != nil {
		return // non-finite floats in the result; memory-only entry
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), c.entryPath(key)) != nil {
		os.Remove(tmp.Name())
	}
}

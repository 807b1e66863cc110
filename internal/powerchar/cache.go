package powerchar

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/hetsched/eas/internal/platform"
	"github.com/hetsched/eas/internal/statestore"
)

// Cache memoizes characterization models by (spec fingerprint, Options).
// Characterization is the pipeline's dominant fixed cost — eight α
// sweeps, each booting a platform per point — and the paper's whole
// premise is that it happens *once per processor*; the reproduction
// used to re-fit the identical model in every evaluation call, bench
// iteration, and CLI invocation. A Cache is safe for concurrent use and
// deduplicates in-flight work: goroutines asking for the same key share
// one measurement (singleflight) instead of racing eight sweeps each.
//
// Cached models are shared pointers — treat them as immutable. Code
// that wants to perturb a model (the single-curve ablation) must build
// its own copy.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	once  sync.Once
	model *Model
	err   error
}

// NewCache returns an empty model cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// DefaultCache is the process-wide model cache the evaluation pipeline,
// the public API, and the CLI tools share.
var DefaultCache = NewCache()

// Cached characterizes through the process-wide DefaultCache: a hit
// returns the shared fitted model immediately, a miss runs
// CharacterizeCtx once and remembers it.
func Cached(ctx context.Context, spec platform.Spec, opts Options) (*Model, error) {
	return DefaultCache.Characterize(ctx, spec, opts)
}

// Key fingerprints a characterization configuration: a SHA-256 over the
// spec's canonical JSON plus the options that shape the fit. Workers is
// deliberately excluded — pool width cannot change the model. Two specs
// that serialize identically produce identical models, so the hash is a
// sound identity.
func Key(spec platform.Spec, opts Options) (string, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("powerchar: fingerprinting spec %s: %w", spec.Name, err)
	}
	opts = opts.withDefaults()
	h := sha256.New()
	h.Write(data)
	fmt.Fprintf(h, "|step=%g|degree=%d", opts.AlphaStep, opts.PolyDegree)
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// Characterize returns the cached model for (spec, opts), measuring and
// fitting it on first use. Concurrent callers with the same key block
// on the single in-flight characterization rather than duplicating it.
// Errors are not cached: a failed or cancelled characterization is
// retried by the next caller.
func (c *Cache) Characterize(ctx context.Context, spec platform.Spec, opts Options) (*Model, error) {
	key, err := Key(spec, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	e.once.Do(func() {
		e.model, e.err = CharacterizeCtx(ctx, spec, opts)
	})
	if e.err != nil {
		// Drop the failed entry so a later call can retry (the error
		// may be a cancelled ctx, not a property of the spec).
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.model, nil
}

// Put seeds the cache with an already-fitted model (used when loading
// persisted caches and by tests).
func (c *Cache) Put(spec platform.Spec, opts Options, m *Model) error {
	key, err := Key(spec, opts)
	if err != nil {
		return err
	}
	e := &cacheEntry{model: m}
	e.once.Do(func() {}) // mark resolved
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
	return nil
}

// Len reports the number of resolved models in the cache.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.model != nil {
			n++
		}
	}
	return n
}

// Stats reports cache hits and misses since creation (a hit is a lookup
// that found an entry, including one still being measured).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// cacheFile is the persisted cache envelope: versioned, with a
// per-entry SHA-256 over the model's canonical JSON so a truncated or
// bit-flipped entry is detected at load instead of poisoning lookups.
type cacheFile struct {
	Version int                    `json:"version"`
	Entries map[string]cacheRecord `json:"entries"`
}

type cacheRecord struct {
	// SHA256 is the hex digest of the Model bytes below.
	SHA256 string          `json:"sha256"`
	Model  json.RawMessage `json:"model"`
}

// cacheFileVersion is the current envelope format.
const cacheFileVersion = 1

// SaveFile persists every resolved model so CLI invocations can skip
// re-characterization across processes ("computed once per processor",
// now literally). The write is crash-safe: the envelope — fingerprint →
// {sha256, model} — goes to a temporary file in the destination
// directory first and is atomically renamed into place, so a reader (or
// a restart) never observes a half-written cache; the per-entry
// checksums let LoadFile reject any corruption that slips past the
// filesystem anyway.
func (c *Cache) SaveFile(path string) error {
	c.mu.Lock()
	models := make(map[string]*Model, len(c.entries))
	for key, e := range c.entries {
		if e.model != nil {
			models[key] = e.model
		}
	}
	c.mu.Unlock()

	out := cacheFile{Version: cacheFileVersion, Entries: make(map[string]cacheRecord, len(models))}
	for key, m := range models {
		raw, err := json.Marshal(m)
		if err != nil {
			return fmt.Errorf("powerchar: encoding model %s: %w", key, err)
		}
		out.Entries[key] = cacheRecord{
			SHA256: fmt.Sprintf("%x", sha256.Sum256(raw)),
			Model:  raw,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("powerchar: encoding model cache: %w", err)
	}

	if err := statestore.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("powerchar: saving model cache: %w", err)
	}
	return nil
}

// LoadStats reports the outcome of a LoadFile: how many models merged
// cleanly and how many entries were skipped as corrupt (checksum
// mismatch, truncated/undecodable JSON) or incomplete.
type LoadStats struct {
	Loaded  int
	Skipped int
}

// LoadFile merges a cache saved with SaveFile into c. Entries that
// fail their checksum, do not decode, or carry incomplete models are
// skipped — and counted in LoadStats — instead of failing the whole
// load, so one corrupt entry (a crash mid-save on an old non-atomic
// writer, a torn disk block) can never poison the rest of the cache.
// Files in the pre-envelope format (a plain fingerprint → model map)
// load with the same per-entry tolerance, minus checksum verification.
func (c *Cache) LoadFile(path string) (LoadStats, error) {
	var st LoadStats
	data, err := os.ReadFile(path)
	if err != nil {
		return st, fmt.Errorf("powerchar: reading model cache: %w", err)
	}
	var in map[string]*Model
	var env cacheFile
	if err := json.Unmarshal(data, &env); err == nil && env.Version >= 1 && env.Entries != nil {
		in = make(map[string]*Model, len(env.Entries))
		for key, rec := range env.Entries {
			// The digest covers the model's compact encoding; compacting
			// before hashing makes it indentation-invariant (MarshalIndent
			// re-indents embedded raw JSON on save).
			var compact bytes.Buffer
			if err := json.Compact(&compact, rec.Model); err != nil {
				st.Skipped++
				continue
			}
			if fmt.Sprintf("%x", sha256.Sum256(compact.Bytes())) != rec.SHA256 {
				st.Skipped++
				continue
			}
			var m *Model
			if err := json.Unmarshal(rec.Model, &m); err != nil {
				st.Skipped++
				continue
			}
			in[key] = m
		}
	} else if err := json.Unmarshal(data, &in); err != nil {
		return st, fmt.Errorf("powerchar: decoding model cache %s: %w", path, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, m := range in {
		if m == nil || !m.Complete() {
			st.Skipped++
			continue
		}
		e := &cacheEntry{model: m}
		e.once.Do(func() {})
		c.entries[key] = e
		st.Loaded++
	}
	return st, nil
}

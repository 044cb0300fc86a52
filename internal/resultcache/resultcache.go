// Package resultcache is the content-addressed on-disk result store
// layered under the in-memory singleflight memo (it implements
// gpusecmem.ResultCache). Entries are keyed by the sha256 of the
// canonical RunKey — the deterministic JSON of the fully resolved
// Config plus the benchmark name — so any configuration change,
// however small, addresses a different entry, and repeated requests
// across process restarts are served from disk bit-identically.
//
// Entries are gob-encoded sim.Result values wrapped in a schema/key
// envelope and written via atomicfile (temp + rename), so a crashed or
// cancelled writer never leaves a truncated entry; a corrupt or
// foreign file reads as a miss and is removed. The envelope is also
// the cluster wire format: GetRaw/PutRaw move the exact on-disk bytes
// between peers with validation but no re-encode (DESIGN.md §16), so
// an entry is encoded once no matter how many nodes serve it. Only successful runs
// are stored — errors stay in the in-memory memo where retry policy
// lives. The retained Chrome-trace span records of a probed run are
// not persisted (they are unexported scratch for trace export, which
// never reads from this cache); everything an experiment table or the
// JSON wire form renders survives the round trip.
//
// Concurrency and aliasing contract: a Cache is safe for concurrent
// use by any number of goroutines *and processes* sharing one
// directory — it holds no mutable in-memory state beyond atomic
// counters, reads only open complete files, and writes rename
// complete files into place. The *sim.Result a Get returns is a fresh
// decode owned by the caller; the Result passed to Put is only read,
// synchronously, during the call.
package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"gpusecmem/internal/atomicfile"
	"gpusecmem/internal/sim"
)

// Schema versions the on-disk entry format; bump it when the encoding
// changes and old entries become unreadable (they then read as misses
// and are replaced on the next Put).
// (Schema 2: Result's kind/metadata arrays widened for the scattered
// and software-encryption schemes, changing the gob shape.)
const Schema = "gpusecmem-resultcache/2"

// entry is the on-disk envelope: the full canonical key is stored so a
// digest collision (or a hand-copied file) can never serve the wrong
// result.
type entry struct {
	Schema string
	Key    string
	Result *sim.Result
}

// EncodeEnvelope renders the wire/disk form of one entry: the gob
// encoding of the schema/key envelope wrapping res. It is what Put
// writes and what GetRaw returns, exposed so the cluster tier can
// push a freshly simulated result to its owner without a second
// encode at the receiver.
func EncodeEnvelope(key string, res *sim.Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("resultcache: nil result")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entry{Schema: Schema, Key: key, Result: res}); err != nil {
		return nil, fmt.Errorf("resultcache: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrBadEnvelope is wrapped by every error DecodeEnvelope (and so
// PutRaw) returns for bytes that are not a valid envelope for the key.
var ErrBadEnvelope = errors.New("resultcache: bad envelope")

// DecodeEnvelope validates and opens a raw envelope: the schema must
// match, the embedded canonical key must equal key (so a digest
// collision, a hand-copied file, or a peer answering the wrong
// question can never serve the wrong result), and the result must be
// present. Bytes after the envelope are rejected too: PutRaw stores
// and GetRaw serves raw verbatim. Any rejection wraps ErrBadEnvelope.
// The returned Result is a fresh decode owned by the caller.
func DecodeEnvelope(raw []byte, key string) (*sim.Result, error) {
	var e entry
	r := bytes.NewReader(raw)
	if err := gob.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBadEnvelope, err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the envelope", ErrBadEnvelope, r.Len())
	}
	if e.Schema != Schema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadEnvelope, e.Schema, Schema)
	}
	if e.Key != key {
		return nil, fmt.Errorf("%w: key mismatch", ErrBadEnvelope)
	}
	if e.Result == nil {
		return nil, fmt.Errorf("%w: no result", ErrBadEnvelope)
	}
	return e.Result, nil
}

// Stats counts cache behaviour since Open.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Puts   uint64 `json:"puts"`
	// Errors counts unreadable/corrupt entries and failed writes; the
	// cache degrades to miss/no-op rather than failing a run.
	Errors uint64 `json:"errors"`
}

// Cache is a persistent result store rooted at one directory. Safe
// for concurrent use by any number of goroutines and processes: reads
// open complete files, writes rename complete files into place.
type Cache struct {
	dir string

	hits, misses, puts, errs atomic.Uint64
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// path fans entries out over 256 two-hex-digit subdirectories so huge
// sweeps do not pile every entry into one directory.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	digest := hex.EncodeToString(sum[:])
	return filepath.Join(c.dir, digest[:2], digest+".gob")
}

// read is the shared load path under Get and GetRaw: it reads the
// entry file whole, validates the envelope, and self-heals — a
// corrupt, truncated, or mismatched entry is removed, counted as an
// error, and reported as a miss.
func (c *Cache) read(key string) (raw []byte, res *sim.Result, ok bool) {
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return nil, nil, false
	}
	res, err = DecodeEnvelope(raw, key)
	if err != nil {
		// Unreadable or foreign: self-heal by dropping the file so the
		// next Put rewrites it.
		os.Remove(path)
		c.errs.Add(1)
		c.misses.Add(1)
		return nil, nil, false
	}
	c.hits.Add(1)
	return raw, res, true
}

// Get returns the stored result for key, or (nil, false). A corrupt,
// truncated, or mismatched entry is removed and reported as a miss.
func (c *Cache) Get(key string) (*sim.Result, bool) {
	_, res, ok := c.read(key)
	return res, ok
}

// GetRaw returns the exact on-disk envelope bytes for key, validated
// (same self-heal-as-miss semantics as Get) but never re-encoded —
// the hot half of the peer proxy path: a daemon serving a peer fetch
// hands the bytes straight from disk to the wire, and the receiving
// peer stores them verbatim with PutRaw, so a result is encoded once
// cluster-wide. The slice is fresh and owned by the caller.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	raw, _, ok := c.read(key)
	return raw, ok
}

// write atomically installs raw (an already-encoded envelope) as
// key's entry. Best-effort like Put.
func (c *Cache) write(key string, raw []byte) error {
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.errs.Add(1)
		return err
	}
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
	if err != nil {
		c.errs.Add(1)
		return err
	}
	c.puts.Add(1)
	return nil
}

// Put stores res under key, atomically. Best-effort: a failed write
// is counted and swallowed — the cache must never fail the run that
// produced the result.
func (c *Cache) Put(key string, res *sim.Result) {
	raw, err := EncodeEnvelope(key, res)
	if err != nil {
		if res != nil {
			c.errs.Add(1)
		}
		return
	}
	c.write(key, raw)
}

// PutRaw stores an already-encoded envelope under key, verbatim —
// the other half of the zero-re-encode proxy path. Unlike Put it
// validates first (the bytes came off a network) and reports the
// error: a raw envelope that does not decode, or whose embedded key
// disagrees, is rejected rather than planted for a later Get to
// self-heal away.
func (c *Cache) PutRaw(key string, raw []byte) error {
	if _, err := DecodeEnvelope(raw, key); err != nil {
		c.errs.Add(1)
		return err
	}
	return c.write(key, raw)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Puts:   c.puts.Load(),
		Errors: c.errs.Load(),
	}
}

// Len walks the cache and counts stored entries (diagnostics only).
func (c *Cache) Len() int {
	n := 0
	filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".gob" {
			n++
		}
		return nil
	})
	return n
}

// Package store is fgpd's content-addressed on-disk artifact store: the
// persistent tier below the in-memory singleflight compile cache. A daemon
// pointed at a populated directory (-store-dir) warm-starts — restarts and
// horizontal replicas serve earlier fills as cache hits instead of
// recompiling.
//
// Three properties the service depends on:
//
//   - Crash safety: fills write to a temporary file and rename into place,
//     so a process killed mid-fill leaves no partially written entry
//     visible. Leftover temporaries are swept on Open. Fills are not
//     flushed to the device: an entry torn by an operating-system crash
//     is caught by the checksum below and costs one recompile, so a fill
//     never waits on the disk.
//   - Integrity: every entry carries a sha256 checksum of its payload; a
//     corrupted entry (bit rot, torn write, truncation) is detected on
//     read-back, evicted, and reported as ErrCorrupt — the caller
//     recompiles rather than serving garbage.
//   - Bounded size: the store is an LRU over total payload bytes. Put
//     evicts least-recently-used entries past MaxBytes; Get refreshes
//     recency. Recency survives restarts via file mtimes (Get touches).
//
// Keys are the service's content addresses (a short namespace prefix plus
// a hex sha256) — NOT the payload hash, hence the separate checksum.
package store

import (
	"container/list"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNotFound reports that no entry exists for the key.
var ErrNotFound = errors.New("store: entry not found")

// ErrCorrupt reports that the entry existed but failed its integrity check;
// it has been evicted. The caller should treat the key as a miss.
var ErrCorrupt = errors.New("store: entry corrupt")

const (
	// magic heads every entry file; a version bump invalidates the store.
	magic = "FGPSTORE1\n"
	// headerLen is magic plus the 32-byte payload sha256.
	headerLen = len(magic) + sha256.Size
	// entryExt marks committed entries; temporaries use tmpPrefix.
	entryExt  = ".art"
	tmpPrefix = "tmp-"
)

// DefaultMaxBytes bounds the store when the caller passes 0: 1 GiB.
const DefaultMaxBytes = 1 << 30

// Metrics is a snapshot of the store's counters.
type Metrics struct {
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Corrupt   int64 `json:"corrupt"`
	Evictions int64 `json:"evictions"`
}

type entry struct {
	key  string
	size int64 // payload bytes (excluding header)
	elem *list.Element
}

// Store is a content-addressed on-disk LRU. Safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	index map[string]*entry
	lru   *list.List // front = most recently used; values are *entry
	bytes int64

	hits, misses, corrupt, evictions atomic.Int64
}

// Open creates or reopens a store rooted at dir. maxBytes bounds total
// payload bytes (0 = DefaultMaxBytes). Leftover temporaries from a crashed
// fill are removed; committed entries are indexed oldest-first by mtime so
// LRU order approximates the previous process's recency.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		index:    map[string]*entry{},
		lru:      list.New(),
	}

	type onDisk struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []onDisk
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			// A fill that never committed: invisible by design, delete.
			_ = os.Remove(path)
			return nil
		}
		if !strings.HasSuffix(name, entryExt) {
			return nil // not ours; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent eviction; skip
		}
		size := info.Size() - int64(headerLen)
		if size < 0 {
			_ = os.Remove(path) // can't even hold a header: torn, drop it
			return nil
		}
		found = append(found, onDisk{
			key:   strings.TrimSuffix(name, entryExt),
			size:  size,
			mtime: info.ModTime(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		e := &entry{key: f.key, size: f.size}
		e.elem = s.lru.PushFront(e)
		s.index[f.key] = e
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictOverLocked()
	s.mu.Unlock()
	return s, nil
}

// validKey accepts the service's content addresses: lowercase hex plus a
// short namespace prefix joined by '-'. Anything else could escape the
// store directory via the filesystem.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	// Two-level fan-out on the key's tail (the hex digest part) keeps
	// directories small under millions of entries.
	sub := key
	if n := len(key); n >= 2 {
		sub = key[n-2:]
	}
	return filepath.Join(s.dir, sub, key+entryExt)
}

// Get returns the payload stored for key, verifying its checksum. A missing
// entry returns ErrNotFound; a corrupt one is evicted and returns
// ErrCorrupt.
func (s *Store) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	e, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		// Index said present but the file is gone (external deletion).
		s.dropLocked(e)
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		s.dropLocked(e)
		s.mu.Unlock()
		_ = os.Remove(path)
		s.corrupt.Add(1)
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, key)
	}
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if subtle.ConstantTimeCompare(sum[:], data[len(magic):headerLen]) != 1 {
		s.dropLocked(e)
		s.mu.Unlock()
		_ = os.Remove(path)
		s.corrupt.Add(1)
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, key)
	}
	s.lru.MoveToFront(e.elem)
	s.mu.Unlock()
	s.hits.Add(1)
	// Touch so recency survives a restart (Open orders by mtime). Best
	// effort: a failed touch only ages the entry's restart-order.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return payload, nil
}

// Put stores payload under key, atomically: the entry becomes visible only
// via the final rename, so a process crash mid-write leaves at most an
// invisible temporary (swept on the next Open). The file is not flushed to
// the device; see the package comment. Re-putting an existing key refreshes
// its payload and recency.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(filepath.Dir(path), tmpPrefix+hex.EncodeToString(rnd[:]))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sum := sha256.Sum256(payload)
	_, err = f.Write([]byte(magic))
	if err == nil {
		_, err = f.Write(sum[:])
	}
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: committing %s: %w", key, err)
	}

	s.mu.Lock()
	if e, ok := s.index[key]; ok {
		s.bytes += int64(len(payload)) - e.size
		e.size = int64(len(payload))
		s.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, size: int64(len(payload))}
		e.elem = s.lru.PushFront(e)
		s.index[key] = e
		s.bytes += e.size
	}
	s.evictOverLocked()
	s.mu.Unlock()
	return nil
}

// dropLocked removes an entry from the in-memory index (not the file).
func (s *Store) dropLocked(e *entry) {
	if _, ok := s.index[e.key]; !ok {
		return
	}
	delete(s.index, e.key)
	s.lru.Remove(e.elem)
	s.bytes -= e.size
}

// evictOverLocked removes least-recently-used entries until total payload
// bytes fit MaxBytes. Never evicts the most recent entry: a single artifact
// larger than the whole budget still serves its own warm restarts.
func (s *Store) evictOverLocked() {
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.dropLocked(e)
		_ = os.Remove(s.path(e.key))
		s.evictions.Add(1)
	}
}

// Snapshot returns the store's counters.
func (s *Store) Snapshot() Metrics {
	s.mu.Lock()
	entries, bytes := int64(len(s.index)), s.bytes
	s.mu.Unlock()
	return Metrics{
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  s.maxBytes,
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		Evictions: s.evictions.Load(),
	}
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

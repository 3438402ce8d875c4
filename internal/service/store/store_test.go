package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	payload := []byte("the artifact bytes")
	if err := s.Put("art-abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("art-abc123")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("got %q, want %q", got, payload)
	}
	if _, err := s.Get("art-missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v, want ErrNotFound", err)
	}
	m := s.Snapshot()
	if m.Hits != 1 || m.Misses != 1 || m.Entries != 1 {
		t.Errorf("metrics %+v, want 1 hit / 1 miss / 1 entry", m)
	}
}

func TestRejectsInvalidKeys(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, key := range []string{"", "UPPER", "has/slash", "dot.dot", "..", strings.Repeat("a", 200)} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, err := s.Get(key); err == nil {
			t.Errorf("Get(%q) accepted an invalid key", key)
		}
	}
}

// TestWarmReopenServesEarlierFills is the warm-restart contract: a second
// store opened on the same directory serves the first store's fills.
func TestWarmReopenServesEarlierFills(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	for i := 0; i < 8; i++ {
		if err := s1.Put(fmt.Sprintf("art-%02x", i), []byte(strings.Repeat("v", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, 0)
	if s2.Len() != 8 {
		t.Fatalf("reopened store indexed %d entries, want 8", s2.Len())
	}
	for i := 0; i < 8; i++ {
		got, err := s2.Get(fmt.Sprintf("art-%02x", i))
		if err != nil {
			t.Fatalf("entry %d after reopen: %v", i, err)
		}
		if len(got) != i+1 {
			t.Errorf("entry %d: %d bytes, want %d", i, len(got), i+1)
		}
	}
}

// TestKillMidFillLeavesNothingVisible: a fill that dies before the rename
// (simulated by planting the temporary a crashed process would leave) must
// not be served, and Open must sweep it.
func TestKillMidFillLeavesNothingVisible(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	if err := s1.Put("art-aa", []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// A crashed fill: header + partial payload under a temp name, next to a
	// committed entry.
	tmp := filepath.Join(dir, "aa", tmpPrefix+"deadbeef00000000")
	if err := os.WriteFile(tmp, []byte(magic+"partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("Open left the crashed temporary in place: %v", err)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened store indexed %d entries, want only the committed one", s2.Len())
	}
	if got, err := s2.Get("art-aa"); err != nil || string(got) != "committed" {
		t.Errorf("committed entry unreadable after crash sweep: %q, %v", got, err)
	}
}

// TestCorruptEntryDetectedAndEvicted: a bit-flipped payload must fail the
// checksum, return ErrCorrupt, and disappear — never be served.
func TestCorruptEntryDetectedAndEvicted(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	payload := bytes.Repeat([]byte("artifact"), 64)
	if err := s.Put("art-bb", payload); err != nil {
		t.Fatal(err)
	}
	path := s.path("art-bb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+17] ^= 0x40 // flip one payload bit
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get("art-bb"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped entry: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry file not removed")
	}
	if _, err := s.Get("art-bb"); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt entry still indexed: %v, want ErrNotFound", err)
	}
	if m := s.Snapshot(); m.Corrupt != 1 {
		t.Errorf("corrupt count %d, want 1", m.Corrupt)
	}

	// Refilling the key must fully recover it.
	if err := s.Put("art-bb", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("art-bb"); err != nil || !bytes.Equal(got, payload) {
		t.Errorf("refilled entry broken: %v", err)
	}
}

// TestTruncatedEntryDetected: an entry cut below the header (torn write
// plus lost rename ordering on a dumb filesystem) reads as corrupt.
func TestTruncatedEntryDetected(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put("art-cc", []byte("some payload")); err != nil {
		t.Fatal(err)
	}
	path := s.path("art-cc")
	if err := os.WriteFile(path, []byte(magic[:4]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("art-cc"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated entry: %v, want ErrCorrupt", err)
	}
}

// TestUnflushedEntriesAfterOSCrash: Put does not flush, so an operating
// system crash can leave a committed name whose data never reached the
// device — an empty file, or a payload whose tail reads back as zeros.
// Neither may be served: the empty one is dropped on reopen, the zeroed one
// fails its checksum, and both keys read as misses that a refill heals.
func TestUnflushedEntriesAfterOSCrash(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, 0)
	payload := bytes.Repeat([]byte("artifact"), 64)
	for _, key := range []string{"art-e1", "art-e2"} {
		if err := s1.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(s1.path("art-e1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s1.path("art-e2"))
	if err != nil {
		t.Fatal(err)
	}
	clear(data[len(data)-100:])
	if err := os.WriteFile(s1.path("art-e2"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if s2.Len() != 1 {
		t.Errorf("reopened store indexed %d entries, want 1 (the empty file dropped)", s2.Len())
	}
	if _, err := s2.Get("art-e1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty entry: %v, want ErrNotFound", err)
	}
	if _, err := s2.Get("art-e2"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero-tailed entry: %v, want ErrCorrupt", err)
	}
	for _, key := range []string{"art-e1", "art-e2"} {
		if err := s2.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if got, err := s2.Get(key); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s after refill: %v", key, err)
		}
	}
}

// TestChecksumGuardsHeaderNotJustPayload: flipping a checksum byte (not the
// payload) must also read as corrupt.
func TestChecksumGuardsHeaderNotJustPayload(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put("art-dd", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := s.path("art-dd")
	data, _ := os.ReadFile(path)
	data[len(magic)+sha256.Size/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("art-dd"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("checksum-flipped entry: %v, want ErrCorrupt", err)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 100)
	payload := bytes.Repeat([]byte("x"), 40)
	for _, k := range []string{"art-01", "art-02", "art-03"} {
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// 3 x 40 = 120 > 100: the oldest (art-01) must have been evicted.
	if _, err := s.Get("art-01"); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest entry survived eviction: %v", err)
	}
	for _, k := range []string{"art-02", "art-03"} {
		if _, err := s.Get(k); err != nil {
			t.Errorf("recent entry %s evicted: %v", k, err)
		}
	}
	if m := s.Snapshot(); m.Evictions != 1 || m.Bytes != 80 {
		t.Errorf("metrics %+v, want 1 eviction / 80 bytes", m)
	}

	// Touch art-02 (now LRU order 02 > 03 after the Gets above... re-get 02
	// to make 03 the coldest), then overflow again: 03 must go, 02 stay.
	if _, err := s.Get("art-02"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("art-04", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("art-03"); !errors.Is(err, ErrNotFound) {
		t.Error("cold entry art-03 survived; LRU recency not honored")
	}
	if _, err := s.Get("art-02"); err != nil {
		t.Errorf("recently used art-02 evicted: %v", err)
	}
}

// TestOversizeSingleEntrySurvives: one artifact larger than the budget is
// kept (evicting it would make the store useless for its only client).
func TestOversizeSingleEntrySurvives(t *testing.T) {
	s := open(t, t.TempDir(), 10)
	big := bytes.Repeat([]byte("y"), 64)
	if err := s.Put("art-big", big); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("art-big"); err != nil || !bytes.Equal(got, big) {
		t.Errorf("oversize entry not served: %v", err)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				key := fmt.Sprintf("art-%02d%02d", g, i%8)
				payload := []byte(fmt.Sprintf("payload-%d-%d", g, i%8))
				if err := s.Put(key, payload); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				got, err := s.Get(key)
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("get %s: %q, want %q", key, got, payload)
					return
				}
			}
		}()
	}
	wg.Wait()
}

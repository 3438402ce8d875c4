// The selector memo: which artifact a request names, remembered. Building
// a catalog loop, encoding it with ir.MarshalLoop and hashing the encoding
// twice costs more host time than the simulation a cache hit then runs.
// The memo maps a request's selector (a catalog kernel name, or the sha256
// of a source text) plus its address inputs (the pipeline key, or a
// frontier's partitioner and grid) to the loop name and content addresses
// the first successful resolution computed, so later requests go straight
// to the cache tiers and build the loop only inside a fill that actually
// compiles.
//
// It stores no loop and no wire bytes, only strings, and only successful
// resolutions: a selector that fails to resolve takes the full path every
// time and reports its error as resolveLoop renders it. Wire-encoded IR
// selectors bypass it — they are nearly always unique, and hashing them to
// look them up would cost what the memo saves.
//
// It is read-mostly and sharded like the metrics counters (McKenney's
// partitioning): a hit takes one shard's read lock. It has no bound of its
// own; it grows by one small entry per distinct (selector, levers) pair,
// the same pairs whose artifacts the unbounded memory tier holds.

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"hash/maphash"
	"sync"
)

// memoKey is a selector plus the address inputs that, with the loop,
// determine the content addresses.
type memoKey struct {
	sel string      // "kernel:" + name, or "source:" + hex sha256 of the text
	pk  pipelineKey // /v1/run and batch items; zero for /v1/frontier
	srf string      // /v1/frontier: the surfaceKey bytes; "" otherwise
}

// memoVal is what a resolution computed. For /v1/frontier art holds the
// surface address and seq is empty.
type memoVal struct {
	name     string
	seq, art string
}

const memoShards = 16

type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]memoVal
	_  [32]byte
}

type selectorMemo struct {
	seed   maphash.Seed
	shards [memoShards]memoShard
	hits   counter
}

func newSelectorMemo() *selectorMemo {
	m := &selectorMemo{seed: maphash.MakeSeed()}
	for i := range m.shards {
		m.shards[i].m = map[memoKey]memoVal{}
	}
	return m
}

func (m *selectorMemo) shardOf(k memoKey) *memoShard {
	return &m.shards[maphash.String(m.seed, k.sel)%memoShards]
}

// get returns the memoized resolution for k, counting a hit.
func (m *selectorMemo) get(k memoKey) (memoVal, bool) {
	sh := m.shardOf(k)
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	}
	return v, ok
}

// put records a successful resolution. Concurrent first requests for one
// key compute identical values, so the last write wins harmlessly.
func (m *selectorMemo) put(k memoKey, v memoVal) {
	sh := m.shardOf(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

func (m *selectorMemo) entries() int64 {
	var n int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += int64(len(sh.m))
		sh.mu.RUnlock()
	}
	return n
}

// memoSelector returns the memo's selector for a request that names
// exactly one of a catalog kernel or a source program, and "" for an IR
// selector or a malformed selection (both take the full resolveLoop path).
func memoSelector(kernel string, irLen int, source string) string {
	switch {
	case irLen > 0 || (kernel != "" && source != ""):
		return ""
	case kernel != "":
		return "kernel:" + kernel
	case source != "":
		sum := sha256.Sum256([]byte(source))
		return "source:" + hex.EncodeToString(sum[:])
	}
	return ""
}

// Selector-memo conformance: a memo hit answers exactly what the cold
// resolution answered, with the same content addresses a fresh server
// computes; concurrent first requests agree and compile once; and a memo
// hit whose cache tiers are empty fills from disk, or compiles from a
// rebuilt loop, without changing a byte of the answer.

package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"fgp/internal/frontend"
	"fgp/internal/kernels"
	"fgp/internal/machspace"
)

// memoSelectors are one request per memoized selector kind: a catalog
// kernel name and a source program.
func memoSelectors(t *testing.T) map[string]RunRequest {
	t.Helper()
	k, err := kernels.ByName("sphot-2")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]RunRequest{
		"kernel": {Kernel: "umt2k-1"},
		"source": {Source: frontend.Format(k.Build())},
	}
}

// probe sends one request through an endpoint and returns the response
// with its timing and cache fields cleared, its content address, and
// whether the cache served it.
type probe func(t *testing.T, ts *httptest.Server, sel RunRequest, levers int) (body, addr string, cached bool)

func intp(v int) *int       { return &v }
func int64p(v int64) *int64 { return &v }

// withRunLevers applies one of the two lever sets the run and batch probes
// send.
func withRunLevers(sel RunRequest, levers int) RunRequest {
	if levers == 0 {
		sel.Cores = 2
		return sel
	}
	sel.Cores, sel.QueueLen, sel.TransferLatency = 3, intp(8), int64p(0)
	return sel
}

func normalizedRun(t *testing.T, r *RunResponse) (string, string, bool) {
	t.Helper()
	addr, cached := r.ArtifactAddress, r.CachedArtifact
	r.CompileMs, r.SimMs, r.CachedArtifact = 0, 0, false
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), addr, cached
}

var memoProbes = map[string]probe{
	"run": func(t *testing.T, ts *httptest.Server, sel RunRequest, levers int) (string, string, bool) {
		code, resp, msg := postRun(t, ts, withRunLevers(sel, levers))
		if code != http.StatusOK {
			t.Fatalf("run: status %d (%s)", code, msg)
		}
		return normalizedRun(t, resp)
	},
	"batch": func(t *testing.T, ts *httptest.Server, sel RunRequest, levers int) (string, string, bool) {
		code, items, trailer := postBatch(t, ts, BatchRequest{Items: []RunRequest{withRunLevers(sel, levers)}})
		if code != http.StatusOK || trailer == nil || len(items) != 1 || items[0].Result == nil {
			t.Fatalf("batch: status %d, items %+v, trailer %v", code, items, trailer)
		}
		return normalizedRun(t, items[0].Result)
	},
	"frontier": func(t *testing.T, ts *httptest.Server, sel RunRequest, levers int) (string, string, bool) {
		grids := []machspace.Grid{
			{QueueLen: []int{4, 20}, TransferLatency: []int64{0, 5}},
			{Cores: []int{2}, QueueLen: []int{8}},
		}
		body, err := json.Marshal(FrontierRequest{Kernel: sel.Kernel, Source: sel.Source, Grid: &grids[levers]})
		if err != nil {
			t.Fatal(err)
		}
		code, fr, raw := postFrontier(t, ts, string(body))
		if code != http.StatusOK {
			t.Fatalf("frontier: status %d (%s)", code, raw)
		}
		cached := fr.CachedSurface
		fr.CachedSurface = false
		data, err := json.Marshal(fr)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), fr.SurfaceAddress, cached
	},
}

// TestMemoHitMatchesColdAndFresh: for each memoized selector kind, under
// two lever sets, on /v1/run, a batch item and /v1/frontier, the second
// request is a memo hit that answers exactly what the cold request did,
// costs the cache tiers the same lookups, and carries the address a fresh
// server computes from scratch.
func TestMemoHitMatchesColdAndFresh(t *testing.T) {
	for epName, ep := range memoProbes {
		for selName, sel := range memoSelectors(t) {
			for levers := 0; levers < 2; levers++ {
				t.Run(fmt.Sprintf("%s/%s/levers%d", epName, selName, levers), func(t *testing.T) {
					s, ts := newTestServer(t, Config{})
					cold, coldAddr, coldCached := ep(t, ts, sel, levers)
					m0 := s.Snapshot()
					if m0.Memo.Hits != 0 || m0.Memo.Entries != 1 {
						t.Fatalf("after the cold request memo is %+v, want 0 hits and 1 entry", m0.Memo)
					}
					warm, warmAddr, warmCached := ep(t, ts, sel, levers)
					m1 := s.Snapshot()
					if m1.Memo.Hits != 1 || m1.Memo.Entries != 1 {
						t.Errorf("after the warm request memo is %+v, want 1 hit and 1 entry", m1.Memo)
					}
					if coldCached || !warmCached {
						t.Errorf("cached flags cold=%v warm=%v, want false then true", coldCached, warmCached)
					}
					if warm != cold {
						t.Errorf("memo hit answered differently:\n cold %s\n warm %s", cold, warm)
					}
					coldLookups := m0.Cache.Hits + m0.Cache.Misses
					if warmLookups := m1.Cache.Hits + m1.Cache.Misses - coldLookups; warmLookups != coldLookups {
						t.Errorf("memo hit made %d cache lookups, the cold request %d", warmLookups, coldLookups)
					}
					if m1.Artifacts.Compiles != m0.Artifacts.Compiles {
						t.Errorf("memo hit compiled %d times", m1.Artifacts.Compiles-m0.Artifacts.Compiles)
					}

					_, fresh := newTestServer(t, Config{})
					_, freshAddr, _ := ep(t, fresh, sel, levers)
					if coldAddr != freshAddr || warmAddr != freshAddr {
						t.Errorf("addresses cold %s warm %s, fresh server %s", coldAddr, warmAddr, freshAddr)
					}
				})
			}
		}
	}
}

// TestMemoConcurrentFirstRequests: 16 simultaneous first requests for one
// selector on a fresh server all get the same address, and the artifact
// and its baseline compile once each.
func TestMemoConcurrentFirstRequests(t *testing.T) {
	for selName, sel := range memoSelectors(t) {
		t.Run(selName, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			body, err := json.Marshal(withRunLevers(sel, 0))
			if err != nil {
				t.Fatal(err)
			}
			const n = 16
			resps := make([]RunResponse, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
					if err != nil {
						errs[i] = err
						return
					}
					defer resp.Body.Close()
					data, err := io.ReadAll(resp.Body)
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					}
					if err == nil {
						err = json.Unmarshal(data, &resps[i])
					}
					errs[i] = err
				}(i)
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("request %d: %v", i, errs[i])
				}
				if resps[i].ArtifactAddress != resps[0].ArtifactAddress || resps[i].Cycles != resps[0].Cycles {
					t.Errorf("request %d: address %s cycles %d, request 0: %s %d", i,
						resps[i].ArtifactAddress, resps[i].Cycles, resps[0].ArtifactAddress, resps[0].Cycles)
				}
			}
			m := s.Snapshot()
			if m.Artifacts.Compiles != 2 { // one artifact plus one sequential baseline
				t.Errorf("%d compiles, want 2", m.Artifacts.Compiles)
			}
			if m.Memo.Entries != 1 {
				t.Errorf("%d memo entries, want 1", m.Memo.Entries)
			}
		})
	}
}

// TestMemoHitFillsWithoutResolving: a memo hit on a daemon whose memory
// tier is empty (a restart that kept the memo) serves both fills from the
// disk store with zero compiles; with no store it compiles from a rebuilt
// loop. Either way the answer and its address are unchanged.
func TestMemoHitFillsWithoutResolving(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := newServerOn(t, a)
	sels := memoSelectors(t)
	cold := map[string]string{}
	for name, sel := range sels {
		cold[name], _, _ = memoProbes["run"](t, tsA, sel, 0)
	}

	for _, leg := range []struct {
		name                    string
		cfg                     Config
		wantCompiles, wantDisks int64
	}{
		{"disk", Config{StoreDir: dir}, 0, 2 * int64(len(sels))},
		{"compile", Config{}, 2 * int64(len(sels)), 0},
	} {
		t.Run(leg.name, func(t *testing.T) {
			b, err := New(leg.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.memo = a.memo
			hits := b.memo.hits.Load()
			tsB := newServerOn(t, b)
			for name, sel := range sels {
				if got, _, _ := memoProbes["run"](t, tsB, sel, 0); got != cold[name] {
					t.Errorf("%s: memo hit answered differently:\n cold %s\n got  %s", name, cold[name], got)
				}
			}
			m := b.Snapshot()
			if got := m.Memo.Hits - hits; got != int64(len(sels)) {
				t.Errorf("%d memo hits, want %d", got, len(sels))
			}
			if m.Artifacts.Compiles != leg.wantCompiles || m.Artifacts.DiskHits != leg.wantDisks {
				t.Errorf("%d compiles and %d disk hits, want %d and %d",
					m.Artifacts.Compiles, m.Artifacts.DiskHits, leg.wantCompiles, leg.wantDisks)
			}
		})
	}
}

// Lever-presence conformance: the machine levers on /v1/run must
// distinguish "not sent" from a literal zero. transfer_latency 0 is a real
// machine (instant transfers) with its own content address and cycle
// count; unset, the legacy `queue_len: 0` spelling, and an explicit paper
// default are all one canonical address.

package service

import (
	"encoding/json"
	"strings"
	"testing"
)

// rawJSON feeds a hand-written body through postRun's marshal step
// unchanged, so tests can spell field presence exactly.
func rawJSON(s string) json.RawMessage { return json.RawMessage(s) }

func TestZeroTransferLatencyIsARealLever(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(body string) *RunResponse {
		t.Helper()
		code, resp, errMsg := postRun(t, ts, rawJSON(body))
		if code != 200 {
			t.Fatalf("POST %s: %d %s", body, code, errMsg)
		}
		return resp
	}

	unset := post(`{"kernel":"umt2k-4","cores":4}`)
	if unset.ArtifactAddress == "" {
		t.Fatal("response carries no artifact address")
	}

	// The explicit paper default is the same machine: same canonical
	// address (so the artifact is a cache hit), same cycle count.
	explicitDefault := post(`{"kernel":"umt2k-4","cores":4,"transfer_latency":5}`)
	if explicitDefault.ArtifactAddress != unset.ArtifactAddress {
		t.Errorf("explicit transfer_latency 5 address %s != unset %s",
			explicitDefault.ArtifactAddress, unset.ArtifactAddress)
	}
	if !explicitDefault.CachedArtifact {
		t.Error("explicit paper default recompiled instead of hitting the canonical address")
	}
	if explicitDefault.Cycles != unset.Cycles {
		t.Errorf("explicit default cycles %d != unset %d", explicitDefault.Cycles, unset.Cycles)
	}

	// transfer_latency 0 is a different machine: distinct address,
	// strictly fewer cycles (umt2k-4 at 4 cores communicates).
	zero := post(`{"kernel":"umt2k-4","cores":4,"transfer_latency":0}`)
	if zero.ArtifactAddress == unset.ArtifactAddress {
		t.Error("transfer_latency 0 shares the unset content address; zero was decoded as absent")
	}
	if zero.Cycles >= unset.Cycles {
		t.Errorf("transfer_latency 0 cycles %d, want strictly fewer than default %d",
			zero.Cycles, unset.Cycles)
	}
}

func TestQueueLenLegacyZeroStaysCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(body string) *RunResponse {
		t.Helper()
		code, resp, errMsg := postRun(t, ts, rawJSON(body))
		if code != 200 {
			t.Fatalf("POST %s: %d %s", body, code, errMsg)
		}
		return resp
	}
	unset := post(`{"kernel":"sphot-1","cores":2}`)
	for _, body := range []string{
		`{"kernel":"sphot-1","cores":2,"queue_len":0}`,  // legacy "default" spelling
		`{"kernel":"sphot-1","cores":2,"queue_len":20}`, // explicit paper default
	} {
		r := post(body)
		if r.ArtifactAddress != unset.ArtifactAddress {
			t.Errorf("%s: address %s, want the canonical %s", body, r.ArtifactAddress, unset.ArtifactAddress)
		}
		if !r.CachedArtifact {
			t.Errorf("%s: recompiled instead of hitting the canonical address", body)
		}
	}
	// A real capacity override is its own machine.
	short := post(`{"kernel":"sphot-1","cores":2,"queue_len":4}`)
	if short.ArtifactAddress == unset.ArtifactAddress {
		t.Error("queue_len 4 shares the default content address")
	}
}

func TestLeverBoundsStillRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct {
		body string
		want string
	}{
		{`{"kernel":"irs-1","queue_len":-1}`, "queue_len"},
		{`{"kernel":"irs-1","queue_len":5000}`, "queue_len"},
		{`{"kernel":"irs-1","transfer_latency":-1}`, "transfer_latency"},
		{`{"kernel":"irs-1","transfer_latency":1048577}`, "transfer_latency"},
	} {
		code, eb := postRaw(t, ts, c.body)
		if code != 400 {
			t.Errorf("%s: status %d, want 400", c.body, code)
		}
		if !strings.Contains(eb.Error, c.want) {
			t.Errorf("%s: error %q does not name %s", c.body, eb.Error, c.want)
		}
	}
}

// TestThreadedEngineAliasesBurst pins the engine-name contract over HTTP:
// "threaded" (the name of a removed engine) is still accepted and returns
// the burst engine's cycles from the same content-addressed artifact.
func TestThreadedEngineAliasesBurst(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(engine string) *RunResponse {
		t.Helper()
		code, resp, errMsg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 3, Engine: engine})
		if code != 200 {
			t.Fatalf("engine %q: %d %s", engine, code, errMsg)
		}
		return resp
	}
	burst, threaded := run("burst"), run("threaded")
	if threaded.Cycles != burst.Cycles || threaded.Transfers != burst.Transfers {
		t.Errorf("threaded: cycles %d transfers %d, burst: cycles %d transfers %d",
			threaded.Cycles, threaded.Transfers, burst.Cycles, burst.Transfers)
	}
	if threaded.ArtifactAddress != burst.ArtifactAddress {
		t.Errorf("threaded artifact address %s != burst %s", threaded.ArtifactAddress, burst.ArtifactAddress)
	}
}

// Regression tests for deadline semantics under sustained load. The bug:
// admit() used to start the min(server, request) budget only after a worker
// slot was acquired, so time spent queued silently extended timeout_ms —
// under saturation, a request with a 50ms budget could wait seconds and
// then still run. The budget now starts at admission and covers the queue
// wait; a request whose deadline passes while queued is a prompt 504.

package service

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestQueuedRequestHonorsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Timeout: 60 * time.Second})
	s.sem <- struct{}{} // saturate the only worker from the outside
	defer func() { <-s.sem }()

	start := time.Now()
	code, _, msg := postRun(t, ts, RunRequest{Kernel: "sphot-1", Cores: 2, TimeoutMs: 50})
	elapsed := time.Since(start)

	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued request past its deadline: %d %q, want 504", code, msg)
	}
	if !strings.Contains(msg, "queued") {
		t.Errorf("504 body %q does not say the deadline passed in the queue", msg)
	}
	// The old behavior waited out the 60s server budget (or forever, for
	// requests with no server timeout). 5s is generous for a 50ms budget on
	// a loaded CI machine while still catching the regression.
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; the deadline must fire while queued, not after", elapsed)
	}
	m := s.Snapshot()
	if m.Queued != 0 {
		t.Errorf("request left a queue slot behind: queued=%d", m.Queued)
	}
	if m.Canceled == 0 {
		t.Error("queued-deadline expiry not counted")
	}
	if m.Latency.Count == 0 {
		t.Error("queued-deadline expiry not observed in the latency reservoir")
	}
}

// TestBatchQueuedDeadline: the same contract holds for a whole batch — its
// TimeoutMs covers the queue wait, and expiry is one 504 before any item
// runs.
func TestBatchQueuedDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Timeout: 60 * time.Second})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	code, _, trailer := postBatch(t, ts, BatchRequest{
		Items:     []RunRequest{{Kernel: "sphot-1", Cores: 2}, {Kernel: "irs-1", Cores: 2}},
		TimeoutMs: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued batch past its deadline: %d, want 504", code)
	}
	if trailer != nil {
		t.Error("timed-out batch produced a trailer; items must not have run")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("batch 504 took %v", elapsed)
	}
	if s.Snapshot().BatchItems != 0 {
		t.Error("timed-out batch executed items")
	}
}

// TestTimeoutMsValidated: a negative timeout_ms is a 400 on /v1/run, the
// batch body, a batch item and /v1/frontier, before any compile; a value
// too large for time.Duration means the full server budget rather than
// overflowing into an instant deadline.
func TestTimeoutMsValidated(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	item := RunRequest{Kernel: "umt2k-1", Cores: 2}
	neg := item
	neg.TimeoutMs = -5

	if code, eb := postRaw(t, ts, `{"kernel":"umt2k-1","cores":2,"timeout_ms":-5}`); code != http.StatusBadRequest ||
		!strings.Contains(eb.Error, "timeout_ms") {
		t.Errorf("/v1/run: status %d (%q), want 400 naming timeout_ms", code, eb.Error)
	}
	if code, _, _ := postBatch(t, ts, BatchRequest{Items: []RunRequest{item}, TimeoutMs: -5}); code != http.StatusBadRequest {
		t.Errorf("/v1/batch body: status %d, want 400", code)
	}
	code, items, trailer := postBatch(t, ts, BatchRequest{Items: []RunRequest{neg}})
	if code != http.StatusOK || trailer == nil || len(items) != 1 {
		t.Fatalf("/v1/batch: status %d, %d items, trailer %v", code, len(items), trailer)
	}
	if it := items[0]; it.Status != http.StatusBadRequest || trailer.Failed != 1 {
		t.Errorf("/v1/batch item: status %d (%q), trailer %+v, want one failed 400", it.Status, it.Error, trailer)
	}
	if code, _, raw := postFrontier(t, ts, `{"kernel":"umt2k-4",`+smallGrid+`,"timeout_ms":-5}`); code != http.StatusBadRequest {
		t.Errorf("/v1/frontier: status %d (%s), want 400", code, raw)
	}
	if c := s.Snapshot().Artifacts.Compiles; c != 0 {
		t.Errorf("rejected requests cost %d compiles, want 0", c)
	}

	const huge = 18446744073710 // overflows time.Duration once scaled to ns
	if code, eb := postRaw(t, ts, `{"kernel":"umt2k-1","cores":2,"timeout_ms":18446744073710}`); code != http.StatusOK {
		t.Errorf("/v1/run: status %d (%q), want 200", code, eb.Error)
	}
	big := item
	big.TimeoutMs = huge
	code, items, trailer = postBatch(t, ts, BatchRequest{Items: []RunRequest{big}, TimeoutMs: huge})
	if code != http.StatusOK || trailer == nil || trailer.OK != 1 {
		t.Errorf("/v1/batch: status %d, items %+v, trailer %+v, want one ok item", code, items, trailer)
	}
	if code, _, raw := postFrontier(t, ts, `{"kernel":"umt2k-4",`+smallGrid+`,"timeout_ms":18446744073710}`); code != http.StatusOK {
		t.Errorf("/v1/frontier: status %d (%s), want 200", code, raw)
	}
}

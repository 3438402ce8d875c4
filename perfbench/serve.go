package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/fuzz"
	"fgp/internal/ir"
	"fgp/internal/service"
)

// Traffic classes and their shares of the serve-mixed request stream.
const (
	classHit      = "hit"
	classMiss     = "miss"
	classBatch    = "batch"
	classFrontier = "frontier"
)

// serveBlock is the traffic mix as one block of 20 requests: 60% hits,
// 15% misses, 15% batches, 10% frontier reads. Request streams are built
// from blocks shuffled by the seed, so every seed offers the same mix.
var serveBlock = map[string]int{classHit: 12, classMiss: 3, classBatch: 3, classFrontier: 2}

// classBlocks returns n blocks of classes, each block shuffled by rng.
func classBlocks(rng *rand.Rand, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		var block []string
		for _, class := range []string{classHit, classMiss, classBatch, classFrontier} {
			for j := 0; j < serveBlock[class]; j++ {
				block = append(block, class)
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out
}

// missGen sizes the unique miss loops so that compilation dominates a miss.
var missGen = fuzz.GenConfig{Trips: 64, MaxStmts: 24, MaxDepth: 4}

// frontierKernels have their machine-space surfaces filled during set-up.
var frontierKernels = []string{"umt2k-4", "umt2k-2", "lammps-2"}

// openShare is the share of the run's seconds spent in the open loop.
const openShare = 0.6

// serveWindow is the number of open-loop requests per latency window.
const serveWindow = 100

// A closed-loop pass is closedBlocks blocks of the mix; a run makes
// closedPasses passes.
const (
	closedBlocks = 3
	closedPasses = 25
)

// server is one in-process fgpd on a loopback listener.
type server struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan struct{}
}

func startServer(workers int, storeDir string) (*server, error) {
	srv, err := service.New(service.Config{Workers: workers, StoreDir: storeDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop drains the service, closes the listener and waits for the serve
// goroutine to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	<-s.done
	return err
}

// request is one planned client request and, after it ran, its outcome.
type request struct {
	class  string
	method string
	path   string
	body   []byte
	expect []expectRun // per run item: the library's cycles (hits and misses)

	due     time.Duration // open loop: offset of its scheduled send
	status  int
	resp    []byte
	latency time.Duration // from due (open loop) or send (closed loop) to completion
	late    time.Duration // open loop: how late the generator sent it
	err     error
}

// expectRun is the expected result of one /v1/run (or batch item). For a
// miss, loop is set and cycles are computed from the library after the
// timed window.
type expectRun struct {
	name   string
	cores  int
	loop   *ir.Loop
	cycles int64
	seq    int64
}

// hitKey is one (kernel, cores) cell of the hit set.
type hitKey struct {
	k     corpusKernel
	cores int
}

// servePlan builds the request stream. Hits visit the hit cells round
// robin in a seeded order, so every seed reads every cell equally often;
// miss loops are unique, each from a fresh generator seed, and rotate over
// the core counts; frontier reads rotate over the frontier kernels.
type servePlan struct {
	hits      []hitKey
	want      *simExpected
	seed      int64
	order     []int
	nHit      int
	misses    int64
	frontiers int
}

func newServePlan(hits []hitKey, want *simExpected, seed int64, rng *rand.Rand) *servePlan {
	return &servePlan{hits: hits, want: want, seed: seed, order: rng.Perm(len(hits))}
}

func (p *servePlan) runItem(h hitKey) (service.RunRequest, expectRun) {
	req := service.RunRequest{Cores: h.cores}
	if h.k.source != nil {
		req.Source = string(h.k.source)
	} else {
		req.Kernel = h.k.name
	}
	return req, expectRun{
		name:   h.k.name,
		cores:  h.cores,
		cycles: p.want.Cycles[cellKey(h.k.name, h.cores, 5)],
		seq:    p.want.Seq[h.k.name],
	}
}

func (p *servePlan) hitItem() (service.RunRequest, expectRun) {
	h := p.hits[p.order[p.nHit%len(p.order)]]
	p.nHit++
	return p.runItem(h)
}

func (p *servePlan) missItem() (service.RunRequest, expectRun, error) {
	p.misses++
	l := fuzz.Generate(uint64(p.seed)<<32|uint64(p.misses), missGen)
	cores := cellCores[int(p.misses)%len(cellCores)]
	wire, err := ir.MarshalLoop(l)
	if err != nil {
		return service.RunRequest{}, expectRun{}, err
	}
	return service.RunRequest{IR: wire, Cores: cores}, expectRun{name: l.Name, cores: cores, loop: l}, nil
}

func (p *servePlan) next(class string) (*request, error) {
	r := &request{class: class, method: "POST", path: "/v1/run"}
	var body any
	switch class {
	case classHit:
		req, e := p.hitItem()
		body, r.expect = req, []expectRun{e}
	case classMiss:
		req, e, err := p.missItem()
		if err != nil {
			return nil, err
		}
		body, r.expect = req, []expectRun{e}
	case classBatch:
		var b service.BatchRequest
		for i := 0; i < 4; i++ {
			req, e := p.hitItem()
			if i == 3 {
				var err error
				if req, e, err = p.missItem(); err != nil {
					return nil, err
				}
			}
			b.Items = append(b.Items, req)
			r.expect = append(r.expect, e)
		}
		body, r.path = b, "/v1/batch"
	case classFrontier:
		r.method = "GET"
		r.path = "/v1/frontier?kernel=" + url.QueryEscape(frontierKernels[p.frontiers%len(frontierKernels)])
		p.frontiers++
		return r, nil
	}
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	r.body = data
	return r, nil
}

// client issues requests over at most `conns` connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) do(r *request) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		r.err = err
		return
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.resp, r.err = io.ReadAll(resp.Body)
}

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) metrics() (service.Metrics, error) {
	var m service.Metrics
	err := c.get("/metrics", &m)
	return m, err
}

// runAll sends reqs over `conns` concurrent connections, each request as
// soon as a connection is free.
func (c *client) runAll(reqs []*request, conns int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				c.do(reqs[i])
				reqs[i].latency = time.Since(t0)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends reqs at their due offsets over at most `conns`
// connections. A request waits when every connection is busy; its latency
// counts from when it was due, so a stall charges every request behind it.
func (c *client) openLoop(reqs []*request, conns int) {
	work := make(chan *request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				r.late = time.Since(start) - r.due
				c.do(r)
				r.latency = time.Since(start) - r.due
			}
		}()
	}
	for _, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		work <- r
	}
	close(work)
	wg.Wait()
}

// serveEnv is serve-mixed's set-up product: a warm server on a primed
// store, with the set-up's own measurements.
type serveEnv struct {
	srv          *server
	cl           *client
	hits         []hitKey
	primeColdS   float64
	primeWarmS   float64
	warmDisk     int64     // artifact disk hits while priming the restarted server
	fillCompiles int64     // compiles the frontier fills paid after /v1/run
	speedups     []float64 // the warm server's speedup for every hit cell
	setupFailed  []string
}

func (e *serveEnv) close() error {
	e.cl.hc.CloseIdleConnections()
	return e.srv.stop()
}

// serveSetup primes the hit set on a cold server, restarts a second server
// on the same store and primes it again from disk, then runs /v1/run and
// /v1/frontier for the frontier kernels.
func serveSetup(o options, want *simExpected, rep int) (*serveEnv, error) {
	ks, err := corpus()
	if err != nil {
		return nil, err
	}
	env := &serveEnv{}
	for _, k := range ks {
		for _, cores := range cellCores {
			env.hits = append(env.hits, hitKey{k, cores})
		}
	}
	plan := &servePlan{want: want}
	prime := func() []*request {
		var reqs []*request
		for _, h := range env.hits {
			req, e := plan.runItem(h)
			body, _ := json.Marshal(req) // RunRequest always marshals
			reqs = append(reqs, &request{class: classHit, method: "POST", path: "/v1/run", body: body, expect: []expectRun{e}})
		}
		return reqs
	}
	checkAll := func(what string, reqs []*request) {
		for _, r := range reqs {
			if err := checkResponse(r); err != nil {
				env.setupFailed = append(env.setupFailed, fmt.Sprintf("%s %s: %v", what, r.path, err))
			}
		}
	}

	storeDir := filepath.Join(o.runDir, fmt.Sprintf("store-%d", rep))
	cold, err := startServer(o.workers, storeDir)
	if err != nil {
		return nil, err
	}
	cl := newClient(cold.base, o.workers)
	t0 := time.Now()
	reqs := prime()
	cl.runAll(reqs, o.workers)
	env.primeColdS = time.Since(t0).Seconds()
	checkAll("cold prime", reqs)
	cl.hc.CloseIdleConnections()
	if err := cold.stop(); err != nil {
		return nil, err
	}

	env.srv, err = startServer(o.workers, storeDir)
	if err != nil {
		return nil, err
	}
	env.cl = newClient(env.srv.base, o.workers)
	t0 = time.Now()
	reqs = prime()
	env.cl.runAll(reqs, o.workers)
	env.primeWarmS = time.Since(t0).Seconds()
	checkAll("warm prime", reqs)
	for _, r := range reqs {
		var resp service.RunResponse
		if json.Unmarshal(r.resp, &resp) == nil && resp.Speedup > 0 {
			env.speedups = append(env.speedups, resp.Speedup)
		}
	}
	m0, err := env.cl.metrics()
	if err != nil {
		return nil, errors.Join(err, env.close())
	}
	env.warmDisk = m0.Artifacts.DiskHits

	var fill []*request
	for _, k := range frontierKernels {
		body, _ := json.Marshal(service.RunRequest{Kernel: k, Cores: 4})
		fill = append(fill, &request{class: classHit, method: "POST", path: "/v1/run", body: body})
	}
	env.cl.runAll(fill, o.workers)
	m1, err := env.cl.metrics()
	if err != nil {
		return nil, errors.Join(err, env.close())
	}
	var surf []*request
	for _, k := range frontierKernels {
		surf = append(surf, &request{class: classFrontier, method: "GET", path: "/v1/frontier?kernel=" + url.QueryEscape(k)})
	}
	env.cl.runAll(surf, o.workers)
	checkAll("frontier fill", append(fill, surf...))
	m2, err := env.cl.metrics()
	if err != nil {
		return nil, errors.Join(err, env.close())
	}
	env.fillCompiles = m2.Artifacts.Compiles - m1.Artifacts.Compiles
	return env, nil
}

// serveStats is what one serve-mixed run measured.
type serveStats struct {
	setupS       float64
	env          *serveEnv
	open, closed []*request
	passS        []float64
	liveMB       float64         // live heap at the end of the window, server still up
	before       service.Metrics // /metrics at the start of the timed window
	after        service.Metrics // and at its end
}

// runServe sets up, runs the open-loop phase for openShare of `seconds` at
// the offered rate, then closedPasses closed-loop passes, and checks every
// response after the window.
func runServe(o options, c *checks, seconds float64) (*serveStats, error) {
	want, err := loadSimExpected()
	if err != nil {
		return nil, err
	}
	st := &serveStats{}
	st.env, st.setupS, err = timeSetup(3, func(rep int) (*serveEnv, error) { return serveSetup(o, want, rep) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	env := st.env
	for _, f := range env.setupFailed {
		c.ok(false, "%s", f)
	}

	// Open loop: requests due at evenly spaced instants at the offered
	// rate, so run-to-run differences come from the server, not from
	// arrival bursts.
	rng := rand.New(rand.NewSource(o.seed))
	plan := newServePlan(env.hits, want, o.seed, rng)
	n := int(openShare*seconds*o.serveRate/20) + 1
	for i, class := range classBlocks(rng, n) {
		r, err := plan.next(class)
		if err != nil {
			return nil, errors.Join(err, env.close())
		}
		r.due = time.Duration(float64(i) / o.serveRate * float64(time.Second))
		st.open = append(st.open, r)
	}

	if st.before, err = env.cl.metrics(); err != nil {
		return nil, errors.Join(err, env.close())
	}
	env.cl.openLoop(st.open, o.workers)

	// Closed loop: closedPasses passes of one class script, so every run
	// does the same amount of work and grows the caches by the same amount.
	script := classBlocks(rng, closedBlocks)
	for pass := 0; pass < closedPasses; pass++ {
		reqs := make([]*request, len(script))
		for i, class := range script {
			if reqs[i], err = plan.next(class); err != nil {
				return nil, errors.Join(err, env.close())
			}
		}
		t0 := time.Now()
		env.cl.runAll(reqs, o.workers)
		st.passS = append(st.passS, time.Since(t0).Seconds())
		st.closed = append(st.closed, reqs...)
	}
	if st.after, err = env.cl.metrics(); err != nil {
		return nil, errors.Join(err, env.close())
	}
	st.liveMB = liveHeapMB()
	if err := env.close(); err != nil {
		return nil, err
	}

	all := append(append([]*request(nil), st.open...), st.closed...)
	if err := fillMissExpectations(all, o.workers); err != nil {
		return nil, err
	}
	for _, r := range all {
		if err := checkResponse(r); err != nil {
			c.ok(false, "%s %s: %v", r.class, r.path, err)
		} else {
			c.ok(true, "")
		}
	}
	return st, nil
}

// fillMissExpectations computes, from the library, the cycles every miss
// loop must report: core.Compile at the requested cores plus the
// sequential baseline, both simulated at the paper defaults.
func fillMissExpectations(reqs []*request, workers int) error {
	var misses []*expectRun
	for _, r := range reqs {
		for i := range r.expect {
			if r.expect[i].loop != nil {
				misses = append(misses, &r.expect[i])
			}
		}
	}
	return experiments.ParallelEach(len(misses), workers, func(i int) error {
		e := misses[i]
		a, err := core.Compile(e.loop, core.DefaultOptions(e.cores))
		if err != nil {
			return fmt.Errorf("library compile of %s: %w", e.name, err)
		}
		res, err := a.RunDefault()
		if err != nil {
			return fmt.Errorf("library run of %s: %w", e.name, err)
		}
		sa, err := core.CompileSequential(e.loop)
		if err != nil {
			return fmt.Errorf("library sequential compile of %s: %w", e.name, err)
		}
		sres, err := sa.RunDefault()
		if err != nil {
			return fmt.Errorf("library sequential run of %s: %w", e.name, err)
		}
		e.cycles, e.seq = res.Cycles, sres.Cycles
		return nil
	})
}

// checkResponse validates one completed request: status 200, and every
// run result carrying the library's cycles and sequential cycles.
func checkResponse(r *request) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.resp)
	}
	switch r.class {
	case classFrontier:
		var f service.FrontierResponse
		if err := json.Unmarshal(r.resp, &f); err != nil {
			return err
		}
		if f.Points == 0 || len(f.Frontier) == 0 {
			return fmt.Errorf("frontier %s: %d points, %d on the frontier", f.Kernel, f.Points, len(f.Frontier))
		}
		return nil
	case classBatch:
		items := map[int]*service.RunResponse{}
		var trailer *service.BatchTrailer
		sc := bufio.NewScanner(bytes.NewReader(r.resp))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var line struct {
				service.BatchItemResult
				service.BatchTrailer
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return fmt.Errorf("batch line: %w", err)
			}
			if line.Done {
				t := line.BatchTrailer
				trailer = &t
				continue
			}
			if line.Status != http.StatusOK || line.Result == nil {
				return fmt.Errorf("batch item %d: status %d: %s", line.Index, line.Status, line.Error)
			}
			items[line.Index] = line.Result
		}
		if trailer == nil {
			return fmt.Errorf("batch without its trailer")
		}
		if trailer.OK != len(r.expect) || len(items) != len(r.expect) {
			return fmt.Errorf("batch: %d of %d items ok", trailer.OK, len(r.expect))
		}
		for i, e := range r.expect {
			if err := checkRun(items[i], e); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		var resp service.RunResponse
		if err := json.Unmarshal(r.resp, &resp); err != nil {
			return err
		}
		if len(r.expect) == 0 {
			return nil
		}
		return checkRun(&resp, r.expect[0])
	}
}

func checkRun(resp *service.RunResponse, e expectRun) error {
	if resp == nil {
		return fmt.Errorf("missing result")
	}
	if resp.Cycles != e.cycles || resp.SeqCycles != e.seq || resp.Cores != e.cores {
		return fmt.Errorf("%s at %d cores: cycles %d seq %d, want %d and %d (%d cores)",
			e.name, e.cores, resp.Cycles, resp.SeqCycles, e.cycles, e.seq, resp.Cores)
	}
	return nil
}

// serveMixed: an in-process fgpd under mixed traffic.
func serveMixed(o options, c *checks, m metrics) error {
	st, err := runServe(o, c, o.seconds)
	if err != nil {
		return err
	}
	// Windows of serveWindow consecutive open-loop requests (2 s at
	// 50 req/s), each with ten requests above its 90th percentile; a short
	// remainder joins the last window.
	var opMs [][]float64
	for i, r := range st.open {
		if len(opMs) == 0 || i%serveWindow == 0 && len(st.open)-i >= serveWindow {
			opMs = append(opMs, nil)
		}
		opMs[len(opMs)-1] = append(opMs[len(opMs)-1], ms(r.latency))
	}
	m.set("setup_s", st.setupS, "s")
	m.set("pass_s", median(st.passS), "s")
	m.set("op_p50_ms", windowQuantile(opMs, 0.5), "ms")
	m.set("op_p90_ms", windowQuantile(opMs, 0.9), "ms")
	m.set("speedup_geomean", geomean(st.env.speedups), "x")
	m.set("live_heap_mb", st.liveMB, "MB")
	return nil
}

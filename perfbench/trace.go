package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"fgp/internal/codegraph"
	"fgp/internal/core"
	"fgp/internal/deps"
	"fgp/internal/experiments"
	"fgp/internal/fiber"
	"fgp/internal/frontend"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/machspace"
	"fgp/internal/normalize"
	"fgp/internal/outline"
	"fgp/internal/profile"
	"fgp/internal/search"
	"fgp/internal/service"
	"fgp/internal/sim"
	"fgp/internal/speculate"
	"fgp/internal/tac"
	"fgp/internal/verify"
)

// traceDir receives the span file of each traced run.
const traceDir = ".bench_build/trace"

// traceServeSeconds is the length of the traced run's service phase.
const traceServeSeconds = 6

// span is one timed call into a layer. Spans of one cell share Cell;
// Parent is the index of the span that caused it (-1 for a root).
type span struct {
	Cell   string `json:"cell"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing and costs one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(cell, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Cell: cell, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].Dur = now - t.spans[id].Start
	t.mu.Unlock()
}

// selfMs sums, per span name, each span's duration minus the time its
// child spans cover (children of one parent never overlap here: every
// cell's spans come from one goroutine).
func (t *tracer) selfMs() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.Dur-child[i]) / 1e6
	}
	return out
}

// totalMs sums the durations of the spans named name.
func (t *tracer) totalMs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Dur
		}
	}
	return float64(ns) / 1e6
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// replayed is the product of one replay of core.CompileContext.
type replayed struct {
	loop     *ir.Loop // post-transformation loop
	fn       *tac.Fn
	set      *fiber.Set
	info     *deps.Info
	parts    *codegraph.Result
	compiled *outline.Compiled
	report   core.Report
	mc       sim.Config
	cost     func(*tac.Instr) int64
	spec     speculate.Result
}

// sizes are the IR-size counters summed over replayed cells.
type sizes struct {
	tacInstrs, fibers, depEdges, specIfs, mergeSteps, commOps, outInstrs int
}

func (s *sizes) add(r *replayed) {
	s.tacInstrs += len(r.fn.Instrs)
	s.fibers += len(r.set.Fibers)
	s.depEdges += len(r.info.Edges)
	s.specIfs += r.spec.Transformed
	s.mergeSteps += r.parts.MergeSteps
	s.commOps += r.compiled.CommOps
	for _, p := range r.compiled.Programs {
		s.outInstrs += len(p.Instrs)
	}
}

// replayCompile runs core.CompileContext's pass sequence for the heuristic
// partitioner from public calls, one span per pass under root. With
// front set, it stops after codegraph.Merge (the search replay's seed).
func replayCompile(t *tracer, cell string, root int, l *ir.Loop, opt core.Options, front bool) (*replayed, error) {
	r := &replayed{mc: sim.DefaultConfig(opt.Cores)}
	if err := r.mc.Validate(); err != nil {
		return nil, err
	}
	step := func(name string, f func() error) error {
		id := t.begin(cell, name, root)
		err := f()
		t.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	src := l
	if opt.NormalizeOps > 0 {
		if err := step("normalize", func() error {
			l, _ = normalize.Apply(l, opt.NormalizeOps)
			return ir.Validate(l)
		}); err != nil {
			return nil, err
		}
	}
	if opt.Speculate {
		if err := step("speculate", func() error {
			l, r.spec = speculate.Apply(l)
			return ir.Validate(l)
		}); err != nil {
			return nil, err
		}
	}
	r.loop = l
	err := step("tac", func() (err error) { r.fn, err = tac.Lower(l); return })
	if err == nil {
		err = step("fiber", func() (err error) { r.set, err = fiber.Partition(r.fn); return })
	}
	if err == nil {
		err = step("deps", func() (err error) { r.info, err = deps.Analyze(r.fn, r.set); return })
	}
	var prof profile.Profile
	if err == nil && opt.UseProfile {
		err = step("profile", func() (err error) { prof, err = core.ComputeProfile(src, opt); return })
		if t != nil && err == nil {
			// core.ComputeProfile re-runs the front passes before its
			// profiling simulation. The front passes just replayed (the
			// root's children so far) stand in for that share, as a child
			// span, so the profile span's self time estimates the
			// simulation alone.
			pid := len(t.spans) - 1
			var front int64
			for _, s := range t.spans[root+1 : pid] {
				if s.Parent == root {
					front += s.Dur
				}
			}
			t.spans = append(t.spans, span{Cell: cell, Name: "profile.front", Parent: pid, Start: t.spans[pid].Start, Dur: min(front, t.spans[pid].Dur)})
		}
	}
	if err != nil {
		return nil, err
	}
	r.cost = profile.InstrCost(r.mc.Cost, prof)
	if err := step("codegraph", func() (err error) {
		r.parts, err = codegraph.Merge(r.info, codegraph.Options{
			Targets: opt.Cores, Weights: codegraph.DefaultWeights(),
			Throughput: opt.Throughput, MultiPair: opt.MultiPair, InstrCost: r.cost,
		})
		return
	}); err != nil || front {
		return r, err
	}
	r.compiled, err = buildCandidate(t, cell, root, "", r, r.parts, opt.Schedule)
	if err != nil {
		return nil, err
	}
	if err := step("sim.translate", func() error { sim.PrecompileThreaded(r.compiled.Programs, r.mc.Cost); return nil }); err != nil {
		return nil, err
	}
	r.report = replayReport(r, opt.Cores)
	return r, nil
}

// buildCandidate is the pipeline tail every partition goes through:
// outline.Generate, isa.Program.Validate and verify.Check, one span each
// under root, named with prefix.
func buildCandidate(t *tracer, cell string, root int, prefix string, r *replayed, parts *codegraph.Result, schedule bool) (*outline.Compiled, error) {
	depthCap := 8
	if r.mc.QueueLen < depthCap {
		depthCap = r.mc.QueueLen
	}
	id := t.begin(cell, prefix+"outline", root)
	compiled, err := outline.Generate(r.fn, r.info, parts, outline.Options{
		MachineCores: r.mc.Cores, Schedule: schedule, InstrCost: r.cost, TokenDepthCap: depthCap,
	})
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("outline: %w", err)
	}
	id = t.begin(cell, prefix+"isa", root)
	for _, p := range compiled.Programs {
		if err = p.Validate(r.mc.Cores); err != nil {
			break
		}
	}
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("isa: %w", err)
	}
	id = t.begin(cell, prefix+"verify", root)
	err = verify.Check(verify.Input{
		Programs: compiled.Programs, Cores: r.mc.Cores, QueueLen: r.mc.QueueLen,
		Fn: r.fn, Deps: r.info, Parts: parts,
	})
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return compiled, nil
}

// replayReport rebuilds core.Report from the replayed pipeline state.
func replayReport(r *replayed, cores int) core.Report {
	rep := core.Report{
		Kernel: r.loop.Name, Cores: cores,
		InitialFibers: len(r.set.Fibers), DataDeps: r.info.DataDepCount(),
		CommOps: r.compiled.CommOps, Transfers: r.compiled.Transfers, StaticQueues: r.compiled.StaticQueues,
		MergeSteps: r.parts.MergeSteps, SpeculatedIfs: r.spec.Transformed,
		Partitioner: core.PartitionerHeuristic,
	}
	maxOps, minOps := 0, math.MaxInt
	for _, fibers := range r.parts.Parts {
		ops := 0
		for _, f := range fibers {
			ops += r.set.ComputeOps(r.set.Fibers[f])
		}
		rep.ComputeOps = append(rep.ComputeOps, ops)
		maxOps, minOps = max(maxOps, ops), min(minOps, ops)
	}
	rep.LoadBalance = float64(max(maxOps, 1)) / float64(max(minOps, 1))
	return rep
}

// traceCell is one compile cell of the traced run.
type traceCell struct {
	name string
	loop *ir.Loop
	opt  core.Options
}

func (c traceCell) id() string {
	return fmt.Sprintf("%s/%dc/spec=%v/norm=%d", c.name, c.opt.Cores, c.opt.Speculate, c.opt.NormalizeOps)
}

// compileCells are eval-cold's compile cells: the corpus at every
// cellCores count, with the paper defaults and with speculation plus
// tree splitting (the Table II and normalize ablation variants).
func compileCells() ([]traceCell, error) {
	ks, err := corpus()
	if err != nil {
		return nil, err
	}
	var cells []traceCell
	for _, k := range ks {
		l, err := k.build()
		if err != nil {
			return nil, err
		}
		for _, cores := range cellCores {
			opt := core.DefaultOptions(cores)
			cells = append(cells, traceCell{k.name, l, opt})
			opt.Speculate, opt.NormalizeOps = true, 3
			cells = append(cells, traceCell{k.name, l, opt})
		}
	}
	return cells, nil
}

// layerCompile replays every compile cell traced and untraced, compiles it
// with core.Compile, and checks that the replay reproduces core.Compile's
// programs, report and cycles. Per cell the traced replay runs first, so
// the threaded translation it times is cold; the untraced replay and
// core.Compile then find it cached, and core.other_ms leaves translation
// out of both sides.
func layerCompile(t *tracer, c *checks, m metrics) ([]*core.Artifact, error) {
	cells, err := compileCells()
	if err != nil {
		return nil, err
	}
	var sz sizes
	var tracedNs, untracedNs, compileNs int64
	var arts []*core.Artifact
	for _, cell := range cells {
		id := cell.id()
		t0 := time.Now()
		root := t.begin(id, "core.replay", -1)
		r, err := replayCompile(t, id, root, cell.loop, cell.opt, false)
		t.end(root)
		tracedNs += int64(time.Since(t0))
		if !c.err(err, "replay "+id) {
			continue
		}
		sz.add(r)

		t0 = time.Now()
		_, err = replayCompile(nil, id, -1, cell.loop, cell.opt, false)
		untracedNs += int64(time.Since(t0))
		c.err(err, "untraced replay "+id)

		t0 = time.Now()
		a, err := core.Compile(cell.loop, cell.opt)
		compileNs += int64(time.Since(t0))
		if !c.err(err, "core.Compile "+id) {
			continue
		}
		c.ok(reflect.DeepEqual(r.compiled.Programs, a.Compiled.Programs), "%s: replayed programs differ from core.Compile's", id)
		c.ok(reflect.DeepEqual(r.report, a.Report), "%s: replayed report %+v, core.Compile %+v", id, r.report, a.Report)
		want, err1 := a.RunDefault()
		mach, err2 := sim.New(r.compiled.Programs, outline.BuildMemory(r.loop), r.mc)
		var got *sim.Result
		if err2 == nil {
			got, err2 = mach.Run()
		}
		if c.err(errors.Join(err1, err2), "simulate "+id) {
			c.ok(got.Cycles == want.Cycles, "%s: replay runs %d cycles, core.Compile %d", id, got.Cycles, want.Cycles)
		}
		if !cell.opt.Speculate {
			arts = append(arts, a)
		}
	}
	self := t.selfMs()
	var passMs float64
	for _, name := range []string{"normalize", "speculate", "tac", "fiber", "deps", "profile", "codegraph", "outline", "isa", "verify"} {
		m.set(name+".ms", self[name], "ms")
		passMs += self[name]
	}
	m.set("sim.translate_ms", self["sim.translate"], "ms")
	m.set("core.compile_ms", float64(compileNs)/1e6, "ms")
	m.set("core.other_ms", float64(compileNs)/1e6-passMs, "ms")
	m.set("core.cells", float64(len(cells)), "count")
	m.set("trace.overhead_ms", (float64(tracedNs)/1e6-self["sim.translate"])-float64(untracedNs)/1e6, "ms")
	m.set("tac.instrs", float64(sz.tacInstrs), "count")
	m.set("fiber.fibers", float64(sz.fibers), "count")
	m.set("deps.edges", float64(sz.depEdges), "count")
	m.set("speculate.ifs", float64(sz.specIfs), "count")
	m.set("codegraph.merge_steps", float64(sz.mergeSteps), "count")
	m.set("outline.comm_ops", float64(sz.commOps), "count")
	m.set("outline.instrs", float64(sz.outInstrs), "count")
	return arts, nil
}

// searchOutcome is one search cell's replay and core.Compile result.
type searchOutcome struct {
	res      *search.Result
	improved int // strict incumbent improvements after the seed
	coreRep  core.Report
	err      error
}

// layerSearch drives search.Refine over eval-cold's Search cells (corpus x
// {2,4} cores, budget 48, seed 1) with an Observer and an objective built
// from the same public calls core uses, and checks that it reaches core's
// SearchCycles, SearchExplored and SearchBaselineCycles.
func layerSearch(t *tracer, c *checks, m metrics, workers int) error {
	ks, err := corpus()
	if err != nil {
		return err
	}
	var cells []traceCell
	for _, k := range ks {
		l, err := k.build()
		if err != nil {
			return err
		}
		for _, cores := range []int{2, 4} {
			opt := core.DefaultOptions(cores)
			opt.Partitioner, opt.SearchBudget, opt.SearchSeed = core.PartitionerSearch, evalSearchBudget, evalSearchSeed
			cells = append(cells, traceCell{k.name, l, opt})
		}
	}
	outs := make([]searchOutcome, len(cells))
	_ = experiments.ParallelEach(len(cells), workers, func(i int) error {
		cell, out := cells[i], &outs[i]
		out.res, out.improved, out.err = replaySearch(t, fmt.Sprintf("%s/%dc/search", cell.name, cell.opt.Cores), cell.loop, cell.opt)
		a, err := core.Compile(cell.loop, cell.opt)
		if err != nil {
			out.err = errors.Join(out.err, err)
		} else {
			out.coreRep = a.Report
		}
		return nil
	})
	var cands, rejected, improved int
	var gains []float64
	for i, out := range outs {
		id := fmt.Sprintf("%s/%dc", cells[i].name, cells[i].opt.Cores)
		if !c.err(out.err, "search "+id) {
			continue
		}
		rep := out.coreRep
		c.ok(out.res.BestCycles == rep.SearchCycles && out.res.Explored == rep.SearchExplored && out.res.SeedCycles == rep.SearchBaselineCycles,
			"search %s: replay reaches %d cycles in %d candidates (seed %d), core %d in %d (seed %d)", id,
			out.res.BestCycles, out.res.Explored, out.res.SeedCycles, rep.SearchCycles, rep.SearchExplored, rep.SearchBaselineCycles)
		cands += out.res.Explored
		rejected += out.res.Rejected
		improved += out.improved
		if out.res.BestCycles > 0 {
			gains = append(gains, float64(out.res.SeedCycles)/float64(out.res.BestCycles))
		}
	}
	self := t.selfMs()
	m.set("search.ms", t.totalMs("search"), "ms")
	m.set("search.candidates", float64(cands), "count")
	m.set("search.rejected", float64(rejected), "count")
	m.set("search.improved_ratio", float64(improved)/float64(max(cands, 1)), "ratio")
	m.set("search.obj.outline_ms", self["search.outline"], "ms")
	m.set("search.obj.verify_ms", self["search.isa"]+self["search.verify"], "ms")
	m.set("search.obj.sim_ms", self["search.sim"], "ms")
	m.set("search.gain_geomean", geomean(gains), "x")
	return nil
}

// replaySearch replays the front of the pipeline untraced, then runs
// search.Refine under a "search" span whose objective records one span per
// stage: the pipeline tail (search.outline, search.isa, search.verify) and
// the threaded-engine simulation (search.sim).
func replaySearch(t *tracer, id string, l *ir.Loop, opt core.Options) (*search.Result, int, error) {
	r, err := replayCompile(nil, id, -1, l, opt, true)
	if err != nil {
		return nil, 0, err
	}
	if len(r.parts.Parts) < 2 {
		return &search.Result{}, 0, nil // core skips the search too
	}
	root := t.begin(id, "search", -1)
	defer t.end(root)
	objCfg := r.mc
	objCfg.Engine = sim.EngineThreaded
	obj := func(ctx context.Context, cand *codegraph.Result) (int64, error) {
		compiled, err := buildCandidate(t, id, root, "search.", r, cand, opt.Schedule)
		if err != nil {
			return 0, err
		}
		sid := t.begin(id, "search.sim", root)
		defer t.end(sid)
		mach, err := sim.New(compiled.Programs, outline.BuildMemory(r.loop), objCfg)
		if err != nil {
			return 0, err
		}
		res, err := mach.RunContext(ctx)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	fiberCost := make([]int64, len(r.parts.PartOf))
	for _, in := range r.fn.Instrs {
		if int(in.Fiber) < len(fiberCost) {
			fiberCost[in.Fiber] += r.cost(in)
		}
	}
	best, improved := int64(-1), 0
	observe := func(_ *codegraph.Result, cycles int64, err error) {
		if err != nil {
			return
		}
		if best >= 0 && cycles < best {
			improved++
		}
		if best < 0 || cycles < best {
			best = cycles
		}
	}
	res, err := search.Refine(context.Background(), r.info, r.parts, fiberCost, obj, search.Options{
		Seed: opt.SearchSeed, Budget: opt.SearchBudget, Observer: observe,
	})
	return res, improved, err
}

// layerSim runs the paper-default artifacts on every engine.
func layerSim(c *checks, m metrics, arts []*core.Artifact) {
	var totals [3]int64
	var cycles, instrs, enq, deq, transfers, hits, misses int64
	for _, a := range arts {
		var ref int64 = -1
		for e, engine := range []string{sim.EngineBurst, sim.EngineThreaded, sim.EngineReference} {
			cfg := a.MachineConfig()
			cfg.Engine = engine
			t0 := time.Now()
			res, err := a.Run(cfg)
			totals[e] += int64(time.Since(t0))
			if !c.err(err, engine+" "+a.Report.Kernel) {
				continue
			}
			if ref < 0 {
				ref = res.Cycles
				cycles += res.Cycles
				for i := range res.PerCoreInstrs {
					instrs += res.PerCoreInstrs[i]
					enq += res.EnqStalls[i]
					deq += res.DeqStalls[i]
				}
				transfers += res.Transfers
				hits += res.LoadHits
				misses += res.LoadMisses
			}
			c.ok(res.Cycles == ref, "%s on %s: %d cycles, burst %d", a.Report.Kernel, engine, res.Cycles, ref)
		}
	}
	for e, engine := range []string{sim.EngineBurst, sim.EngineThreaded, sim.EngineReference} {
		m.set("sim."+engine+".ns_per_cycle", float64(totals[e])/float64(max(cycles, 1)), "ns/cycle")
	}
	m.set("sim.cycles", float64(cycles), "count")
	m.set("sim.instrs", float64(instrs), "count")
	m.set("sim.enq_stall_cycles", float64(enq), "count")
	m.set("sim.deq_stall_cycles", float64(deq), "count")
	m.set("sim.transfers", float64(transfers), "count")
	m.set("sim.l1_miss_ratio", float64(misses)/float64(max(hits+misses, 1)), "ratio")
}

// layerExperiments times the Runner's sequential baselines and a cached
// Runner.Artifact lookup.
func layerExperiments(c *checks, m metrics) {
	r := experiments.NewRunner()
	r.SetWorkers(1)
	t0 := time.Now()
	for _, k := range kernels.All() {
		_, err := r.SeqCycles(k)
		c.err(err, "SeqCycles "+k.Name)
	}
	m.set("experiments.seq_ms", ms(time.Since(t0)), "ms")
	k := kernels.All()[0]
	_, err := r.Artifact(k, experiments.Variant{Cores: 2})
	c.err(err, "Artifact "+k.Name)
	var us []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		_, _ = r.Artifact(k, experiments.Variant{Cores: 2}) // compiled above
		us = append(us, float64(time.Since(t0))/1e3)
	}
	m.set("experiments.artifact_hit_us", median(us), "us")
}

// layerMachspace sweeps the frontier kernels over the default grid.
func layerMachspace(c *checks, m metrics, workers int) {
	r := experiments.NewRunner()
	r.SetWorkers(workers)
	var points, rejected int
	t0 := time.Now()
	for _, name := range frontierKernels {
		k, err := kernels.ByName(name)
		if !c.err(err, name) {
			continue
		}
		surf, err := machspace.Sweep(context.Background(), r, k, machspace.DefaultGrid(), machspace.Options{Workers: workers})
		if !c.err(err, "sweep "+name) {
			continue
		}
		points += len(surf.Points)
		rejected += surf.Rejected()
	}
	m.set("machspace.sweep_ms", ms(time.Since(t0)), "ms")
	m.set("machspace.points", float64(points), "count")
	m.set("machspace.rejected", float64(rejected), "count")
}

// layerFrontend times parsing the tier-2 source corpus.
func layerFrontend(c *checks, m metrics) error {
	ks, err := corpus()
	if err != nil {
		return err
	}
	var runs []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		for _, k := range ks {
			if k.source != nil {
				_, err := frontend.Parse(k.source)
				if i == 0 {
					c.err(err, "parse "+k.name)
				}
			}
		}
		runs = append(runs, ms(time.Since(t0)))
	}
	m.set("frontend.parse_ms", median(runs), "ms")
	return nil
}

// layerService runs a short serve-mixed phase and attributes its latency
// to the service's layers from each response's compile_ms and sim_ms and
// the server's /metrics counters.
func layerService(o options, c *checks, m metrics) error {
	st, err := runServe(o, c, traceServeSeconds)
	if err != nil {
		return err
	}
	lat := map[string][]float64{}
	var overheadHit, overheadMiss, compileMs, simMs, late []float64
	for _, r := range st.open {
		sent := ms(r.latency - r.late) // from send to completion
		lat[r.class] = append(lat[r.class], ms(r.latency))
		lat[r.class+".sent"] = append(lat[r.class+".sent"], sent)
		late = append(late, ms(r.late))
		if r.status != http.StatusOK || r.method != "POST" || r.path != "/v1/run" {
			continue
		}
		var resp service.RunResponse
		if json.Unmarshal(r.resp, &resp) != nil {
			continue
		}
		if r.class == classHit {
			overheadHit = append(overheadHit, sent-resp.CompileMs-resp.SimMs)
			simMs = append(simMs, resp.SimMs)
		} else {
			overheadMiss = append(overheadMiss, sent-resp.CompileMs-resp.SimMs)
			compileMs = append(compileMs, resp.CompileMs)
		}
	}
	m.set("serve.hit_p50_ms", median(lat[classHit]), "ms")
	m.set("serve.hit_p99_ms", quantile(lat[classHit], 0.99), "ms")
	m.set("serve.miss_p50_ms", median(lat[classMiss]), "ms")
	m.set("serve.miss_p90_ms", quantile(lat[classMiss], 0.9), "ms")
	m.set("serve.capacity_rps", float64(closedBlocks*20)/median(st.passS), "req/s")
	m.set("service.overhead_ms.hit", median(overheadHit), "ms")
	m.set("service.overhead_ms.miss", median(overheadMiss), "ms")
	m.set("service.compile_ms", median(compileMs), "ms")
	m.set("service.sim_ms", median(simMs), "ms")
	m.set("service.batch_p50_ms", median(lat[classBatch+".sent"]), "ms")
	m.set("service.frontier_p50_ms", median(lat[classFrontier+".sent"]), "ms")
	b, a := st.before, st.after
	mem, disk, comp := a.Artifacts.MemHits-b.Artifacts.MemHits, a.Artifacts.DiskHits-b.Artifacts.DiskHits, a.Artifacts.Compiles-b.Artifacts.Compiles
	m.set("service.artifacts.mem_hits", float64(mem), "count")
	m.set("service.artifacts.disk_hits", float64(disk), "count")
	m.set("service.artifacts.compiles", float64(comp), "count")
	m.set("service.artifacts.hit_ratio", float64(mem+disk)/float64(max(mem+disk+comp, 1)), "ratio")
	m.set("service.rejected_429", float64(a.Rejected-b.Rejected), "count")
	m.set("service.errors", float64(a.Errors-b.Errors), "count")
	m.set("service.cache.entries", float64(a.Cache.Entries), "count")
	m.set("service.prime_cold_s", st.env.primeColdS, "s")
	m.set("service.prime_warm_s", st.env.primeWarmS, "s")
	m.set("service.prime_warm_disk_hits", float64(st.env.warmDisk), "count")
	m.set("service.frontier.fill_compiles", float64(st.env.fillCompiles), "count")
	m.set("load.late_ms", quantile(late, 0.99), "ms")
	return nil
}

// tracedRun is the per-layer run: every layer is timed from benchmark
// code, around calls into the module's public functions.
func tracedRun(o options, c *checks, m metrics) error {
	t := newTracer()
	if err := layerFrontend(c, m); err != nil {
		return err
	}
	arts, err := layerCompile(t, c, m)
	if err != nil {
		return err
	}
	if err := layerSearch(t, c, m, o.workers); err != nil {
		return err
	}
	layerSim(c, m, arts)
	layerExperiments(c, m)
	layerMachspace(c, m, o.workers)
	if err := layerService(o, c, m); err != nil {
		return err
	}
	m.set("process.max_rss_mb", maxRSSMB(), "MB")
	return t.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)))
}

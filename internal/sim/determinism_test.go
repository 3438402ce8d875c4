package sim_test

// Determinism tests: the burst engine must be a pure host-speed
// optimization. For every kernel of the paper's evaluation, at 2 and 4
// cores, with and without control-flow speculation, the full simulation
// Result — cycles, per-core cycles and instruction counts, enqueue and
// dequeue stalls, queue statistics, cache statistics, and live-out values —
// must be bit-identical between the burst engine and the retained
// per-instruction reference scheduler. Any divergence is a correctness bug
// in burst execution, not a tolerable approximation.

import (
	"fmt"
	"reflect"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
	"fgp/internal/obs"
	"fgp/internal/sim"
)

// runEngines compiles nothing: it simulates an existing artifact once on
// each engine and returns both results.
func runEngines(t *testing.T, a *core.Artifact, cfg sim.Config) (burst, ref *sim.Result) {
	t.Helper()
	cfg.Reference = false
	cfg.Engine = sim.EngineBurst
	burst, err := a.Run(cfg)
	if err != nil {
		t.Fatalf("burst run: %v", err)
	}
	cfg.Engine = sim.EngineReference
	ref, err = a.Run(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return burst, ref
}

// diffResults compares every observable field of two results.
func diffResults(t *testing.T, label string, burst, ref *sim.Result) {
	t.Helper()
	type cmp struct {
		name      string
		got, want any
	}
	checks := []cmp{
		{"Cycles", burst.Cycles, ref.Cycles},
		{"PerCoreCycles", burst.PerCoreCycles, ref.PerCoreCycles},
		{"PerCoreInstrs", burst.PerCoreInstrs, ref.PerCoreInstrs},
		{"EnqStalls", burst.EnqStalls, ref.EnqStalls},
		{"DeqStalls", burst.DeqStalls, ref.DeqStalls},
		{"QueuesUsed", burst.QueuesUsed, ref.QueuesUsed},
		{"PairsUsed", burst.PairsUsed, ref.PairsUsed},
		{"Transfers", burst.Transfers, ref.Transfers},
		{"LoadHits", burst.LoadHits, ref.LoadHits},
		{"LoadMisses", burst.LoadMisses, ref.LoadMisses},
		{"LiveOut", burst.LiveOut, ref.LiveOut},
		{"QueueHighWater", burst.QueueHighWater, ref.QueueHighWater},
		{"MemPortBusyCycles", burst.MemPortBusyCycles, ref.MemPortBusyCycles},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s diverges: got %v, reference %v", label, c.name, c.got, c.want)
		}
	}
}

// TestBurstMatchesReferenceAllKernels is the tentpole guarantee: for all 18
// kernels × {2, 4} cores × {speculation off, on}, burst-mode results are
// identical to the reference per-instruction scheduler.
func TestBurstMatchesReferenceAllKernels(t *testing.T) {
	for _, k := range kernels.All() {
		for _, cores := range []int{2, 4} {
			for _, spec := range []bool{false, true} {
				k, cores, spec := k, cores, spec
				name := fmt.Sprintf("%s/%dcore/spec=%v", k.Name, cores, spec)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					opt := core.DefaultOptions(cores)
					opt.Speculate = spec
					a, err := core.Compile(k.Build(), opt)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					burst, ref := runEngines(t, a, a.MachineConfig())
					diffResults(t, name, burst, ref)
				})
			}
		}
	}
}

// TestBurstMatchesReferenceSequential covers the 1-core compilation path
// (the baseline of every speedup and the profiling runs).
func TestBurstMatchesReferenceSequential(t *testing.T) {
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			a, err := core.CompileSequential(k.Build())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			burst, ref := runEngines(t, a, a.MachineConfig())
			diffResults(t, k.Name, burst, ref)
		})
	}
}

// TestBurstMatchesReferenceConfigSweep stresses the engine equivalence on
// the machine-parameter axes the figures sweep: transfer latency (Fig 13),
// queue length, disabled memory port, and disabled caches.
func TestBurstMatchesReferenceConfigSweep(t *testing.T) {
	k, err := kernels.ByName("irs-1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(k.Build(), core.DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]func(*sim.Config){
		"latency50":  func(c *sim.Config) { c.TransferLatency = 50 },
		"latency100": func(c *sim.Config) { c.TransferLatency = 100 },
		"noport":     func(c *sim.Config) { c.MemPortCycles = 0 },
		"bigport":    func(c *sim.Config) { c.MemPortCycles = 128 },
		"nocache":    func(c *sim.Config) { c.Cache.Lines = 0 },
		"debugedges": func(c *sim.Config) { c.DebugEdges = true },
	}
	for name, mod := range mods {
		name, mod := name, mod
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := a.MachineConfig()
			mod(&cfg)
			burst, ref := runEngines(t, a, cfg)
			diffResults(t, name, burst, ref)
		})
	}
}

// TestEventStreamMatchesAcrossEngines asserts the tentpole observability
// guarantee: with a sink attached, the burst and reference engines deliver
// the identical canonical event stream — every retire, queue operation,
// stall window and region boundary, bit for bit — and still produce
// identical Results.
func TestEventStreamMatchesAcrossEngines(t *testing.T) {
	for _, name := range []string{"sphot-1", "irs-1", "lammps-1", "umt2k-3"} {
		for _, cores := range []int{2, 3, 4} {
			name, cores := name, cores
			t.Run(fmt.Sprintf("%s/%dcore", name, cores), func(t *testing.T) {
				t.Parallel()
				k, err := kernels.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				a, err := core.Compile(k.Build(), core.DefaultOptions(cores))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cfg := a.MachineConfig()
				rRec := obs.NewRecorder()
				cfg.Engine = sim.EngineReference
				cfg.Sink = rRec
				ref, err := a.Run(cfg)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				rec := obs.NewRecorder()
				cfg.Engine = sim.EngineBurst
				cfg.Sink = rec
				res, err := a.Run(cfg)
				if err != nil {
					t.Fatalf("burst run: %v", err)
				}
				diffResults(t, name, res, ref)

				if !reflect.DeepEqual(rec.Meta, rRec.Meta) {
					t.Errorf("sink metadata diverges: burst %+v, reference %+v", rec.Meta, rRec.Meta)
				}
				if len(rec.Events) != len(rRec.Events) {
					t.Fatalf("event counts diverge: burst %d, reference %d", len(rec.Events), len(rRec.Events))
				}
				for i := range rec.Events {
					if rec.Events[i] != rRec.Events[i] {
						t.Fatalf("event %d diverges:\n  burst     %+v\n  reference %+v", i, rec.Events[i], rRec.Events[i])
					}
				}
			})
		}
	}
}

// TestStallAttributionSumsToAggregates asserts the metamorphic invariant
// behind the stall report: per-cause stall windows, summed per core, equal
// the simulator's aggregate EnqStalls/DeqStalls counters exactly, and the
// mem-port windows sum to MemPortBusyCycles' wait share observed per core.
func TestStallAttributionSumsToAggregates(t *testing.T) {
	k, err := kernels.ByName("sphot-1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Compile(k.Build(), core.DefaultOptions(3))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := a.MachineConfig()
	rec := obs.NewRecorder()
	cfg.Sink = rec
	res, err := a.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	perCore := make([][obs.NumCauses]int64, len(res.PerCoreCycles))
	for _, e := range rec.Events {
		if e.Kind == obs.KStallBegin {
			perCore[e.Core][e.Cause] += e.End - e.Time
		}
	}
	var enqTot, deqTot int64
	for i := range perCore {
		if got, want := perCore[i][obs.CauseDeqEmpty], res.DeqStalls[i]; got != want {
			t.Errorf("core %d: deq-empty stall windows sum to %d, DeqStalls says %d", i, got, want)
		}
		if got, want := perCore[i][obs.CauseEnqFull], res.EnqStalls[i]; got != want {
			t.Errorf("core %d: enq-full stall windows sum to %d, EnqStalls says %d", i, got, want)
		}
		enqTot += res.EnqStalls[i]
		deqTot += res.DeqStalls[i]
	}
	if enqTot+deqTot == 0 {
		t.Fatalf("degenerate test: sphot-1 at 3 cores has no queue stalls at all")
	}
}

// TestBurstVerifiesAgainstInterpreter runs the burst engine through the
// full memory-image verification against the reference interpreter for a
// handful of kernels, closing the loop end-to-end.
func TestBurstVerifiesAgainstInterpreter(t *testing.T) {
	for _, name := range []string{"lammps-1", "irs-2", "umt2k-3", "sphot-1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.Compile(k.Build(), core.DefaultOptions(4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Verify(a.MachineConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

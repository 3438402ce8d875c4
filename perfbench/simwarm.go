package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgp/internal/core"
	"fgp/internal/experiments"
	"fgp/internal/ir"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
)

// cellCores are the core counts every corpus kernel is compiled for.
var cellCores = []int{2, 3, 4}

// simLatencies is the run-only transfer-latency lever sim-warm sweeps.
var simLatencies = []int64{0, 5, 20, 50, 100}

// corpusKernel is one kernel of the benchmark corpus: the 18 catalog
// kernels, then the 6 tier-2 kernels (which exist only as fgp source).
type corpusKernel struct {
	name   string
	source []byte // nil for catalog kernels
	build  func() (*ir.Loop, error)
}

func corpus() ([]corpusKernel, error) {
	var out []corpusKernel
	for _, k := range kernels.All() {
		k := k
		out = append(out, corpusKernel{name: k.Name, build: func() (*ir.Loop, error) { return k.Build(), nil }})
	}
	t2, err := tier2.All()
	if err != nil {
		return nil, err
	}
	for _, k := range t2 {
		k := k
		out = append(out, corpusKernel{name: k.Name, source: k.Source, build: k.Build})
	}
	return out, nil
}

// artifact is one compiled (kernel, cores) cell.
type artifact struct {
	kernel string
	cores  int
	a      *core.Artifact
}

// compiledCorpus is sim-warm's set-up product: every corpus kernel compiled
// at every cellCores count, plus each kernel's sequential cycles.
type compiledCorpus struct {
	arts []artifact
	seq  map[string]int64
}

// compileCorpus compiles the corpus on `workers` goroutines. With verify
// set, every artifact is also checked bit-for-bit against the reference
// interpreter (core.Artifact.Verify).
func compileCorpus(workers int, verify bool) (*compiledCorpus, error) {
	ks, err := corpus()
	if err != nil {
		return nil, err
	}
	cc := &compiledCorpus{arts: make([]artifact, len(ks)*len(cellCores)), seq: map[string]int64{}}
	seq := make([]int64, len(ks))
	err = experiments.ParallelEach(len(ks)*(len(cellCores)+1), workers, func(i int) error {
		k := ks[i/(len(cellCores)+1)]
		slot := i % (len(cellCores) + 1)
		l, err := k.build()
		if err != nil {
			return err
		}
		if slot == len(cellCores) {
			a, err := core.CompileSequential(l)
			if err != nil {
				return fmt.Errorf("%s sequential: %w", k.name, err)
			}
			res, err := a.RunDefault()
			if err != nil {
				return fmt.Errorf("%s sequential: %w", k.name, err)
			}
			seq[i/(len(cellCores)+1)] = res.Cycles
			return nil
		}
		cores := cellCores[slot]
		a, err := core.Compile(l, core.DefaultOptions(cores))
		if err != nil {
			return fmt.Errorf("%s at %d cores: %w", k.name, cores, err)
		}
		if verify {
			if _, err := a.Verify(a.MachineConfig()); err != nil {
				return fmt.Errorf("%s at %d cores: %w", k.name, cores, err)
			}
		}
		cc.arts[i/(len(cellCores)+1)*len(cellCores)+slot] = artifact{k.name, cores, a}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range ks {
		cc.seq[k.name] = seq[i]
	}
	return cc, nil
}

func cellKey(kernel string, cores int, lat int64) string {
	return fmt.Sprintf("%s/%dc/lat%d", kernel, cores, lat)
}

// simExpected is the committed expected-value file for sim-warm.
type simExpected struct {
	Seq    map[string]int64 `json:"seq_cycles"`
	Cycles map[string]int64 `json:"cycles"`
}

const simExpectedFile = "sim_cycles.json"

func loadSimExpected() (*simExpected, error) {
	data, err := readTestdata(simExpectedFile)
	if err != nil {
		return nil, err
	}
	var e simExpected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", simExpectedFile, err)
	}
	return &e, nil
}

// simCell is one (artifact, latency) simulation of a sim-warm pass.
type simCell struct {
	art *artifact
	lat int64
}

type simOutcome struct {
	cycles int64
	err    error
	d      time.Duration
}

// simPass simulates every cell on `workers` goroutines in the given order.
func simPass(cells []simCell, order []int, workers int) []simOutcome {
	out := make([]simOutcome, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(order) {
					return
				}
				i := order[j]
				cfg := cells[i].art.a.MachineConfig()
				cfg.TransferLatency = cells[i].lat
				t0 := time.Now()
				res, err := cells[i].art.a.Run(cfg)
				out[i].d = time.Since(t0)
				if err != nil {
					out[i].err = err
				} else {
					out[i].cycles = res.Cycles
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func simCells(cc *compiledCorpus) []simCell {
	var cells []simCell
	for i := range cc.arts {
		for _, lat := range simLatencies {
			cells = append(cells, simCell{&cc.arts[i], lat})
		}
	}
	return cells
}

// simWarm: set-up compiles and verifies the corpus; each pass re-simulates
// every artifact across the transfer-latency lever. No compilation happens
// in the timed part.
func simWarm(o options, c *checks, m metrics) error {
	want, err := loadSimExpected()
	if err != nil {
		return err
	}
	cc, setupS, err := timeSetup(5, func(int) (*compiledCorpus, error) { return compileCorpus(o.workers, true) }, nil)
	if err != nil {
		return err
	}
	var speedups []float64
	for _, a := range cc.arts {
		c.ok(cc.seq[a.kernel] == want.Seq[a.kernel], "%s sequential cycles %d, want %d", a.kernel, cc.seq[a.kernel], want.Seq[a.kernel])
		res, err := a.a.RunDefault()
		if !c.err(err, a.kernel) {
			continue
		}
		speedups = append(speedups, float64(cc.seq[a.kernel])/float64(res.Cycles))
	}

	cells := simCells(cc)
	rng := rand.New(rand.NewSource(o.seed))
	var passS []float64
	var opMs [][]float64
	var cyclesPerPass int64
	start := time.Now()
	for len(passS) < 3 || time.Since(start).Seconds() < o.seconds {
		order := rng.Perm(len(cells))
		t0 := time.Now()
		outs := simPass(cells, order, o.workers)
		passS = append(passS, time.Since(t0).Seconds())
		cyclesPerPass = 0
		passMs := make([]float64, len(outs))
		opMs = append(opMs, passMs)
		for i, out := range outs {
			passMs[i] = ms(out.d)
			key := cellKey(cells[i].art.kernel, cells[i].art.cores, cells[i].lat)
			if c.err(out.err, key) {
				c.ok(out.cycles == want.Cycles[key], "%s: %d cycles, want %d", key, out.cycles, want.Cycles[key])
			}
			cyclesPerPass += out.cycles
		}
	}
	liveMB := liveHeapMB()
	runtime.KeepAlive(cc)
	fmt.Fprintf(os.Stderr, "perfbench: sim-warm %d cells, %d simulated cycles per pass, %.1f Mcycles/s at the median pass\n",
		len(cells), cyclesPerPass, float64(cyclesPerPass)/median(passS)/1e6)
	m.set("setup_s", setupS, "s")
	m.set("pass_s", median(passS), "s")
	m.set("op_p50_ms", windowQuantile(opMs, 0.5), "ms")
	m.set("op_p90_ms", windowQuantile(opMs, 0.9), "ms")
	m.set("speedup_geomean", geomean(speedups), "x")
	m.set("live_heap_mb", liveMB, "MB")
	return nil
}

// recordExpected rewrites a workload's committed expected values from the
// current code. Only sim-warm has such a file; eval-cold's expected report
// is fgpexp's own output (`go run ./cmd/fgpexp > perfbench/testdata/fgpexp_all.txt`).
func recordExpected(workload string, o options) error {
	if workload != "sim-warm" {
		return fmt.Errorf("--record supports sim-warm only")
	}
	cc, err := compileCorpus(o.workers, true)
	if err != nil {
		return err
	}
	e := simExpected{Seq: cc.seq, Cycles: map[string]int64{}}
	cells := simCells(cc)
	order := rand.New(rand.NewSource(1)).Perm(len(cells))
	for i, out := range simPass(cells, order, o.workers) {
		if out.err != nil {
			return out.err
		}
		e.Cycles[cellKey(cells[i].art.kernel, cells[i].art.cores, cells[i].lat)] = out.cycles
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(testdata+simExpectedFile, append(data, '\n'), 0o644)
}

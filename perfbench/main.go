// Command perfbench is the repository benchmark: three workloads that
// exercise the compiler, the simulator and the fgpd service end to end,
// plus a traced run that times calls into each pipeline layer. See
// README.md in this directory for the workloads, the metrics and how to
// run it.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload eval-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones from the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// checks counts output checks and operations. A failed check is never
// dropped: it counts against the run and its first messages go to stderr.
type checks struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
	return cond
}

// err records one operation that either succeeded (err == nil) or failed.
func (c *checks) err(err error, what string) bool {
	if err != nil {
		return c.ok(false, "%s: %v", what, err)
	}
	return c.ok(true, "")
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serveRate float64
	workers   int
	runDir    string
}

func main() {
	start := time.Now()
	var o options
	var trace int
	var secs int
	record := flag.String("record", "", "rewrite the expected-value file for the named workload (sim-warm) instead of measuring")
	flag.StringVar(&o.workload, "workload", "", "workload: eval-cold, sim-warm or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Float64Var(&o.serveRate, "serve-rate", 0, "serve-mixed open-loop offered rate in requests/s (fixed in BENCHMARK.json)")
	flag.Parse()
	o.workers = runtime.NumCPU()
	o.seconds = float64(secs)
	o.trace = trace == 1

	if *record != "" {
		if err := recordExpected(*record, o); err != nil {
			fatal(err)
		}
		return
	}
	workloads := map[string]func(options, *checks, metrics) error{
		"eval-cold":   evalCold,
		"sim-warm":    simWarm,
		"serve-mixed": serveMixed,
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have eval-cold, sim-warm, serve-mixed)", o.workload))
	}
	if secs < 1 || (trace != 0 && trace != 1) || o.serveRate <= 0 {
		fatal(fmt.Errorf("need --seconds >= 1, --trace 0|1 and --serve-rate > 0"))
	}
	if o.trace {
		run = tracedRun
	}
	if err := os.MkdirAll(".bench_build/run", 0o755); err != nil {
		fatal(err)
	}
	runDir, err := os.MkdirTemp(".bench_build/run", "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(runDir)
	o.runDir = runDir

	var c checks
	m := metrics{}
	err = run(o, &c, m)
	if err != nil {
		os.RemoveAll(runDir)
		fatal(err)
	}
	if c.attempted == 0 {
		os.RemoveAll(runDir)
		fatal(fmt.Errorf("no operation attempted"))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v nproc=%d GOMAXPROCS=%d %s, %.1fs total\n",
		o.workload, o.seed, o.trace, o.workers, runtime.GOMAXPROCS(0), runtime.Version(), time.Since(start).Seconds())
	out, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{c.failed == 0, c.attempted, c.failed, m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timeSetup runs set-up reps times and returns the last result with
// the median set-up time in seconds. Every result but the last is handed
// to discard, and the heap is collected and returned to the OS between
// repetitions, so only one set-up's memory is live when timing begins.
func timeSetup[T any](reps int, setup func(rep int) (T, error), discard func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		v, err := setup(rep)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if rep < reps-1 && discard != nil {
			if err := discard(v); err != nil {
				return last, 0, err
			}
		}
		last = v
		debug.FreeOSMemory()
	}
	return last, median(secs), nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowQuantile is the median over windows (a pass, or a stretch of
// requests) of each window's q-quantile, so that one stalled window moves
// a run's figure no more than any other window does.
func windowQuantile(windows [][]float64, q float64) float64 {
	var qs []float64
	for _, w := range windows {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB collects garbage and returns the live heap in MB: the memory
// the workload still holds, without the collector's headroom, which makes
// peak RSS vary by a fifth from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// testdata holds the expected outputs, relative to the repository root.
const testdata = "perfbench/testdata/"

func readTestdata(name string) ([]byte, error) { return os.ReadFile(testdata + name) }

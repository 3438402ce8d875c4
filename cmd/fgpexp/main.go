// Command fgpexp regenerates the paper's evaluation: every table and
// figure of Section V, plus the ablations discussed in Section III-B and
// two extension sweeps.
//
// Usage:
//
//	fgpexp                     # run everything
//	fgpexp -exp fig12          # one experiment
//	fgpexp -exp fig13 -lat 5,20,50,100
//
// Experiments: table1, fig12, table2, table3, fig13, fig14, throughput,
// multipair, schedule, queuelen, search, attribution, machspace, all. The
// search experiment compiles every tier-1 and tier-2 kernel with the
// simulator-guided partition search (-search-budget candidates per kernel,
// seeded by -search-seed) and reports heuristic vs searched cycles.
//
// The machspace experiment sweeps each -ms-kernels kernel over the default
// machine-space grid (queue capacity × transfer latency × enqueue cost at
// 4 cores) and prints the latency-degradation row, the queue-saturation
// row, the Pareto frontier of speedup vs hardware cost, and the
// -ms-targets inverse queries ("cheapest machine reaching 2x").
//
// The attribution experiment records the full observability event stream
// of one kernel (-trace-kernel) across core counts (-trace-cores) and
// prints the per-core stall-attribution report: cycles decomposed by cause
// (queue waits, L1 misses, memory-port serialization), queue occupancy
// high-water marks, and the load-imbalance index. -trace-out additionally
// writes the highest-core-count recording to a file in -trace-format
// (text, perfetto, or report).
//
// Host-performance knobs: -workers bounds the sweep's worker pool,
// -reference forces the retained per-instruction simulator engine
// (bit-identical results, slower), and -cpuprofile/-memprofile write pprof
// profiles of the run for go tool pprof.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"fgp/internal/experiments"
	"fgp/internal/machspace"
	"fgp/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one named section of the evaluation.
type experiment struct {
	name string
	f    func() (string, error)
}

// run executes the fgpexp command line and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("fgpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fgpexp:", err)
		return 1
	}
	exp := fs.String("exp", "all", "experiment to run (table1, fig12, table2, table3, fig13, fig14, throughput, multipair, schedule, normalize, simd, queuelen, search, attribution, machspace, all)")
	lats := fs.String("lat", "5,20,50,100", "comma-separated transfer latencies for fig13")
	qlens := fs.String("qlen", "2,4,8,20,64", "comma-separated queue lengths for queuelen")
	traceKernel := fs.String("trace-kernel", "sphot-1", "kernel for the attribution experiment")
	traceCores := fs.String("trace-cores", "1,2,4", "comma-separated core counts for the attribution experiment")
	traceOut := fs.String("trace-out", "", "write the attribution recording (highest core count) to this file")
	traceFormat := fs.String("trace-format", "perfetto", "format for -trace-out: "+strings.Join(obs.TraceFormats(), ", "))
	msKernels := fs.String("ms-kernels", "umt2k-4,umt2k-2,lammps-2", "comma-separated kernels for the machspace sweep")
	msTargets := fs.String("ms-targets", "1.5,2,3", "comma-separated inverse-query speedup targets for machspace")
	searchBudget := fs.Int("search-budget", 48, "per-kernel candidate budget for the search experiment")
	searchSeed := fs.Int64("search-seed", 1, "random seed for the search experiment")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text tables")
	workers := fs.Int("workers", 0, "worker pool size for experiment sweeps (0 = one per CPU, 1 = serial)")
	reference := fs.Bool("reference", false, "simulate on the reference per-instruction engine instead of the burst engine")
	engine := fs.String("engine", "", "simulation engine for every run: burst (default) or reference (threaded is an alias of burst)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	latencies, err := parseInt64s(*lats)
	if err != nil {
		return fail(err)
	}
	lengths, err := parseInts(*qlens)
	if err != nil {
		return fail(err)
	}

	r := experiments.NewRunner()
	r.SetWorkers(*workers)
	r.SetReference(*reference)
	if *engine != "" {
		r.SetEngine(*engine)
	}
	jsonOut := map[string]any{}
	var exps []experiment
	add := func(name string, f func() (string, error)) {
		exps = append(exps, experiment{name, f})
	}
	collect := func(name string, rows any) {
		if *asJSON {
			jsonOut[name] = rows
		}
	}
	_ = collect

	add("table1", func() (string, error) {
		rows := experiments.Table1()
		collect("table1", rows)
		return experiments.FormatTable1(rows), nil
	})
	add("fig12", func() (string, error) {
		rows, err := experiments.Fig12(r)
		if err != nil {
			return "", err
		}
		collect("fig12", rows)
		return experiments.FormatFig12(rows), nil
	})
	add("table2", func() (string, error) {
		rows, err := experiments.Table2(r)
		if err != nil {
			return "", err
		}
		collect("table2", rows)
		return experiments.FormatTable2(rows), nil
	})
	add("table3", func() (string, error) {
		rows, err := experiments.Table3(r)
		if err != nil {
			return "", err
		}
		collect("table3", rows)
		return experiments.FormatTable3(rows), nil
	})
	add("fig13", func() (string, error) {
		rows, err := experiments.Fig13(r, latencies)
		if err != nil {
			return "", err
		}
		collect("fig13", rows)
		return experiments.FormatFig13(rows, latencies), nil
	})
	add("fig14", func() (string, error) {
		rows, err := experiments.Fig14(r)
		if err != nil {
			return "", err
		}
		collect("fig14", rows)
		return experiments.FormatFig14(rows), nil
	})
	add("throughput", func() (string, error) {
		rows, err := experiments.Throughput(r)
		if err != nil {
			return "", err
		}
		collect("throughput", rows)
		return experiments.FormatThroughput(rows), nil
	})
	add("multipair", func() (string, error) {
		rows, err := experiments.MultiPair(r)
		if err != nil {
			return "", err
		}
		collect("multipair", rows)
		return experiments.FormatMultiPair(rows), nil
	})
	add("schedule", func() (string, error) {
		rows, err := experiments.Schedule(r)
		if err != nil {
			return "", err
		}
		collect("schedule", rows)
		return experiments.FormatSchedule(rows), nil
	})
	add("normalize", func() (string, error) {
		rows, err := experiments.Normalize(r)
		if err != nil {
			return "", err
		}
		collect("normalize", rows)
		return experiments.FormatNormalize(rows), nil
	})
	add("simd", func() (string, error) {
		rows, err := experiments.SIMD()
		if err != nil {
			return "", err
		}
		collect("simd", rows)
		return experiments.FormatSIMD(rows), nil
	})
	add("queuelen", func() (string, error) {
		rows, err := experiments.QueueLen(r, lengths)
		if err != nil {
			return "", err
		}
		collect("queuelen", rows)
		return experiments.FormatQueueLen(rows, lengths), nil
	})
	add("search", func() (string, error) {
		rows, err := experiments.Search(r, experiments.SearchConfig{
			Budget: *searchBudget,
			Seed:   *searchSeed,
			Tier2:  true,
		})
		if err != nil {
			return "", err
		}
		collect("search", rows)
		return experiments.FormatSearch(rows), nil
	})
	add("machspace", func() (string, error) {
		names := strings.Split(*msKernels, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		targets, err := parseFloats(*msTargets)
		if err != nil {
			return "", err
		}
		reps, err := machspace.Report(context.Background(), r, names, machspace.DefaultGrid(), targets, machspace.Options{
			Workers:      *workers,
			Partitioner:  "",
			SearchSeed:   *searchSeed,
			SearchBudget: *searchBudget,
			Engine:       *engine,
		})
		if err != nil {
			return "", err
		}
		collect("machspace", reps)
		return machspace.FormatReport(reps), nil
	})
	add("attribution", func() (string, error) {
		cc, err := parseInts(*traceCores)
		if err != nil {
			return "", err
		}
		rows, err := experiments.Attribution(r, *traceKernel, cc)
		if err != nil {
			return "", err
		}
		collect("attribution", rows)
		out := experiments.FormatAttribution(rows)
		if *traceOut != "" && len(rows) > 0 {
			last := &rows[len(rows)-1]
			data, err := obs.RenderTrace(*traceFormat, last.Meta, last.Events)
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
				return "", err
			}
			out += fmt.Sprintf("trace written: %s (%s, %d cores, %d events)\n",
				*traceOut, *traceFormat, last.Cores, len(last.Events))
		}
		return out, nil
	})

	if *exp != "all" && !slices.ContainsFunc(exps, func(e experiment) bool { return e.name == *exp }) {
		names := make([]string, len(exps))
		for i, e := range exps {
			names[i] = e.name
		}
		fmt.Fprintf(stderr, "fgpexp: unknown experiment %q (have %s, all)\n", *exp, strings.Join(names, ", "))
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	for _, e := range exps {
		if *exp != "all" && *exp != e.name {
			continue
		}
		out, err := e.f()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.name, err))
		}
		if !*asJSON {
			fmt.Fprintln(stdout, out)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			return fail(err)
		}
	}
	return 0
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad float list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	v64, err := parseInt64s(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(v64))
	for i, v := range v64 {
		out[i] = int(v)
	}
	return out, nil
}

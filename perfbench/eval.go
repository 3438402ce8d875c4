package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"fgp/internal/experiments"
	"fgp/internal/kernels"
	"fgp/internal/kernels/tier2"
	"fgp/internal/machspace"
)

// evalSection is one experiment of the full evaluation, in the order
// fgpexp prints them.
type evalSection struct {
	name string
	run  func(r *experiments.Runner, workers int) (string, error)
}

// The flag defaults of fgpexp, which the expected report was rendered with.
var (
	evalLatencies    = []int64{5, 20, 50, 100}
	evalQueueLens    = []int{2, 4, 8, 20, 64}
	evalMSKernels    = []string{"umt2k-4", "umt2k-2", "lammps-2"}
	evalMSTargets    = []float64{1.5, 2, 3}
	evalTraceCores   = []int{1, 2, 4}
	evalSearchSeed   = int64(1)
	evalSearchBudget = 48
)

func format[T any](rows T, err error, f func(T) string) (string, error) {
	if err != nil {
		return "", err
	}
	return f(rows), nil
}

var evalSections = []evalSection{
	{"table1", func(*experiments.Runner, int) (string, error) {
		return experiments.FormatTable1(experiments.Table1()), nil
	}},
	{"fig12", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Fig12(r)
		return format(rows, err, experiments.FormatFig12)
	}},
	{"table2", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Table2(r)
		return format(rows, err, experiments.FormatTable2)
	}},
	{"table3", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Table3(r)
		return format(rows, err, experiments.FormatTable3)
	}},
	{"fig13", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Fig13(r, evalLatencies)
		return format(rows, err, func(rows []experiments.Fig13Row) string { return experiments.FormatFig13(rows, evalLatencies) })
	}},
	{"fig14", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Fig14(r)
		return format(rows, err, experiments.FormatFig14)
	}},
	{"throughput", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Throughput(r)
		return format(rows, err, experiments.FormatThroughput)
	}},
	{"multipair", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.MultiPair(r)
		return format(rows, err, experiments.FormatMultiPair)
	}},
	{"schedule", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Schedule(r)
		return format(rows, err, experiments.FormatSchedule)
	}},
	{"normalize", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Normalize(r)
		return format(rows, err, experiments.FormatNormalize)
	}},
	{"simd", func(*experiments.Runner, int) (string, error) {
		rows, err := experiments.SIMD()
		return format(rows, err, experiments.FormatSIMD)
	}},
	{"queuelen", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.QueueLen(r, evalQueueLens)
		return format(rows, err, func(rows []experiments.QueueLenRow) string { return experiments.FormatQueueLen(rows, evalQueueLens) })
	}},
	{"search", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Search(r, experiments.SearchConfig{Budget: evalSearchBudget, Seed: evalSearchSeed, Tier2: true})
		return format(rows, err, experiments.FormatSearch)
	}},
	{"machspace", func(r *experiments.Runner, workers int) (string, error) {
		reps, err := machspace.Report(context.Background(), r, evalMSKernels, machspace.DefaultGrid(), evalMSTargets, machspace.Options{
			Workers:      workers,
			SearchSeed:   evalSearchSeed,
			SearchBudget: evalSearchBudget,
		})
		return format(reps, err, machspace.FormatReport)
	}},
	{"attribution", func(r *experiments.Runner, _ int) (string, error) {
		rows, err := experiments.Attribution(r, "sphot-1", evalTraceCores)
		return format(rows, err, experiments.FormatAttribution)
	}},
}

// evalInputs is what eval-cold's set-up prepares: the expected report and
// the kernel corpus, loaded and validated once so a pass pays only for the
// evaluation itself.
type evalInputs struct {
	expected []byte
}

func evalSetup(int) (evalInputs, error) {
	want, err := readTestdata("fgpexp_all.txt")
	if err != nil {
		return evalInputs{}, err
	}
	for _, k := range kernels.All() {
		if k.Build() == nil {
			return evalInputs{}, fmt.Errorf("kernel %s builds no loop", k.Name)
		}
	}
	t2, err := tier2.All()
	if err != nil {
		return evalInputs{}, err
	}
	for _, k := range t2 {
		if _, err := k.Build(); err != nil {
			return evalInputs{}, err
		}
	}
	return evalInputs{expected: want}, nil
}

// evalPass computes everything `fgpexp` prints on a fresh Runner and
// returns the rendered report, each section's wall time, and the Runner.
func evalPass(workers int) (string, []float64, *experiments.Runner, error) {
	r := experiments.NewRunner()
	r.SetWorkers(workers)
	var sb strings.Builder
	var secMs []float64
	for _, s := range evalSections {
		t0 := time.Now()
		out, err := s.run(r, workers)
		secMs = append(secMs, ms(time.Since(t0)))
		if err != nil {
			return "", nil, nil, fmt.Errorf("%s: %w", s.name, err)
		}
		sb.WriteString(out)
		sb.WriteString("\n")
	}
	return sb.String(), secMs, r, nil
}

// fig12Speedups reads the Fig 12 speedups (18 kernels x {2,4} cores) off a
// Runner whose artifacts are already compiled.
func fig12Speedups(r *experiments.Runner) ([]float64, error) {
	rows, err := experiments.Fig12(r)
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, row := range rows {
		out = append(out, row.Speedup2, row.Speedup4)
	}
	return out, nil
}

// evalCold: each pass builds a fresh experiments.Runner and computes the
// whole evaluation; the report must equal fgpexp's output byte for byte.
func evalCold(o options, c *checks, m metrics) error {
	in, setupS, err := timeSetup(21, evalSetup, nil)
	if err != nil {
		return err
	}
	var passS, speedups []float64
	var opMs [][]float64
	var liveMB float64
	start := time.Now()
	for len(passS) < 3 || time.Since(start).Seconds() < o.seconds {
		t0 := time.Now()
		report, secMs, r, err := evalPass(o.workers)
		passS = append(passS, time.Since(t0).Seconds())
		if !c.err(err, "evaluation pass") {
			continue
		}
		opMs = append(opMs, secMs)
		if speedups == nil {
			if speedups, err = fig12Speedups(r); err != nil {
				return err
			}
		}
		liveMB = max(liveMB, liveHeapMB())
		runtime.KeepAlive(r)
		c.ok(bytes.Equal([]byte(report), in.expected), "evaluation report differs from perfbench/testdata/fgpexp_all.txt (%d vs %d bytes)", len(report), len(in.expected))
	}
	m.set("setup_s", setupS, "s")
	m.set("pass_s", median(passS), "s")
	m.set("op_p50_ms", windowQuantile(opMs, 0.5), "ms")
	m.set("op_p90_ms", windowQuantile(opMs, 0.9), "ms")
	m.set("speedup_geomean", geomean(speedups), "x")
	m.set("live_heap_mb", liveMB, "MB")
	return nil
}

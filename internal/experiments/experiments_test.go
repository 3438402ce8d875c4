package experiments

import (
	"strings"
	"testing"

	"fgp/internal/core"
	"fgp/internal/kernels"
)

func kernelByName(t *testing.T, name string) *kernels.Kernel {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestFig12ShapesMatchPaper(t *testing.T) {
	r := NewRunner()
	rows, err := Fig12(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	var a2, a4 float64
	byName := map[string]Fig12Row{}
	for _, row := range rows {
		a2 += row.Speedup2 / 18
		a4 += row.Speedup4 / 18
		byName[row.Name] = row
	}
	// The paper reports averages 1.32 (2 cores) and 2.05 (4 cores). Our
	// simulated substrate will not match exactly; require the same band.
	if a2 < 1.1 || a2 > 1.9 {
		t.Errorf("2-core average speedup %.2f outside the plausible band [1.1, 1.9]", a2)
	}
	if a4 < 1.7 || a4 > 2.9 {
		t.Errorf("4-core average speedup %.2f outside the plausible band [1.7, 2.9]", a4)
	}
	// Headline shape claims from the paper:
	if byName["umt2k-6"].Speedup4 >= 1.0 {
		t.Errorf("umt2k-6 should slow down at 4 cores (paper: 0.90), got %.2f", byName["umt2k-6"].Speedup4)
	}
	for _, worst := range []string{"umt2k-2", "umt2k-3", "irs-2"} {
		if byName[worst].Speedup4 > a4 {
			t.Errorf("%s should be below average (conditional reductions / carried sweep), got %.2f vs avg %.2f",
				worst, byName[worst].Speedup4, a4)
		}
	}
	// 4 cores should beat 2 cores on average.
	if a4 <= a2 {
		t.Errorf("4-core average (%.2f) should exceed 2-core average (%.2f)", a4, a2)
	}
	t.Log("\n" + FormatFig12(rows))
}

func TestTable2(t *testing.T) {
	r := NewRunner()
	rows, err := Table2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d apps, want 4", len(rows))
	}
	for _, row := range rows {
		if row.Coverage < 0.35 || row.Coverage > 0.95 {
			t.Errorf("%s: coverage %.2f outside Table I bands", row.App, row.Coverage)
		}
		// Amdahl: app speedup must be below the per-kernel speedups and
		// above 1 wherever kernels speed up on 4 cores.
		if row.Speedup4 < 0.85 || row.Speedup4 > 4 {
			t.Errorf("%s: implausible app speedup %.2f", row.App, row.Speedup4)
		}
		if row.Speedup2 > row.Speedup4+0.2 {
			t.Errorf("%s: 2-core app speedup above 4-core", row.App)
		}
	}
	t.Log("\n" + FormatTable2(rows))
}

func TestTable3(t *testing.T) {
	r := NewRunner()
	rows, err := Table3(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Fibers < 2 {
			t.Errorf("%s: only %d fibers", row.Name, row.Fibers)
		}
		if row.CommOps%2 != 0 {
			t.Errorf("%s: comm ops %d not an enq/deq pairing", row.Name, row.CommOps)
		}
		if row.Queues < 1 {
			t.Errorf("%s: no queues used at 4 cores", row.Name)
		}
	}
	// Load-balance shape: the conditional-reduction kernels are the most
	// imbalanced in the paper (87.5 / 55.0); ours must rank them high too.
	var worst string
	var worstBal float64
	for _, row := range rows {
		if row.Balance > worstBal {
			worstBal, worst = row.Balance, row.Name
		}
	}
	if worst != "umt2k-2" && worst != "umt2k-3" && worst != "lammps-4" {
		t.Logf("note: worst balance is %s (%.1f), paper has umt2k-2", worst, worstBal)
	}
	t.Log("\n" + FormatTable3(rows))
}

func TestFig13LatencyDegradation(t *testing.T) {
	r := NewRunner()
	lats := []int64{5, 20, 50, 100}
	rows, err := Fig13(r, lats)
	if err != nil {
		t.Fatal(err)
	}
	avg := make([]float64, len(lats))
	for _, row := range rows {
		for i, s := range row.Speedups {
			avg[i] += s / float64(len(rows))
		}
	}
	for i := 1; i < len(avg); i++ {
		if avg[i] > avg[i-1]+0.02 {
			t.Errorf("average speedup should not improve with latency: %v", avg)
		}
	}
	if avg[0]-avg[len(avg)-1] < 0.15 {
		t.Errorf("no measurable latency sensitivity: %v", avg)
	}
	// Per the paper, the carried-dependence kernels lose their entire
	// speedup by 20-50 cycles.
	byName := map[string][]float64{}
	for _, row := range rows {
		byName[row.Name] = row.Speedups
	}
	for _, k := range []string{"umt2k-6", "umt2k-2", "irs-2"} {
		if byName[k][1] > 1.15 {
			t.Errorf("%s should lose its speedup at 20-cycle latency (paper), got %.2f", k, byName[k][1])
		}
	}
	t.Log("\n" + FormatFig13(rows, lats))
}

func TestFig14Speculation(t *testing.T) {
	r := NewRunner()
	rows, err := Fig14(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Speculated < row.Base*0.8 {
			t.Errorf("%s: speculation should not badly hurt (%.2f -> %.2f)", row.Name, row.Base, row.Speculated)
		}
	}
	// Note: the paper reports 8 kernels improving (avg 2.05 -> 2.33); on
	// this substrate the queues already hide condition-wait latency across
	// iterations, so speculation's extra work makes it neutral. The
	// qualitative discrepancy and its mechanism are analyzed in
	// EXPERIMENTS.md.
	t.Log("\n" + FormatFig14(rows))
}

func TestThroughputAblation(t *testing.T) {
	r := NewRunner()
	rows, err := Throughput(r)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatThroughput(rows)
	if !strings.Contains(out, "geomean") {
		t.Fatal("format missing summary")
	}
	t.Log("\n" + out)
}

func TestSIMDAnalysis(t *testing.T) {
	rows, err := SIMD()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SIMDRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Paper: lammps and sphot not suitable for SIMD.
	for _, name := range []string{"lammps-1", "lammps-2", "lammps-3", "lammps-4", "lammps-5", "sphot-2"} {
		if byName[name].Vectorizable {
			t.Errorf("%s should not be SIMD-suitable (paper Sec IV)", name)
		}
	}
	// Paper: irs-1 and umt2k-4 gain with 4-way SIMD.
	for _, name := range []string{"irs-1", "umt2k-4"} {
		r := byName[name]
		if !r.Vectorizable || r.Estimate <= 1.05 {
			t.Errorf("%s should be SIMD-suitable with a gain, got %+v", name, r)
		}
	}
	// umt2k-4 should out-gain irs-1 (paper: 1.90 vs 1.17 — irs-1 is
	// bandwidth-bound).
	if byName["umt2k-4"].Estimate <= byName["irs-1"].Estimate {
		t.Errorf("umt2k-4 (%.2f) should out-gain irs-1 (%.2f)",
			byName["umt2k-4"].Estimate, byName["irs-1"].Estimate)
	}
	t.Log("\n" + FormatSIMD(rows))
}

func TestQueueLenSweepIncludesDeadRegime(t *testing.T) {
	r := NewRunner()
	rows, err := QueueLen(r, []int{2, 20})
	if err != nil {
		t.Fatal(err)
	}
	var shortAvg, longAvg float64
	dead := 0
	for _, row := range rows {
		shortAvg += row.Speedups[0] / float64(len(rows))
		longAvg += row.Speedups[1] / float64(len(rows))
		if row.Speedups[0] == 0 {
			dead++
		}
	}
	if shortAvg >= longAvg {
		t.Errorf("2-slot queues (%.2f) should underperform 20-slot queues (%.2f)", shortAvg, longAvg)
	}
	if dead == 0 {
		t.Log("note: no kernel deadlocked at 2 slots in this run")
	}
	t.Log("\n" + FormatQueueLen(rows, []int{2, 20}))
}

func TestMultiPairReducesSteps(t *testing.T) {
	r := NewRunner()
	rows, err := MultiPair(r)
	if err != nil {
		t.Fatal(err)
	}
	fewer := 0
	for _, row := range rows {
		if row.MultiSteps <= row.BaseSteps {
			fewer++
		}
		// Multi-pair trades compile effort, not correctness: the resulting
		// speedup must stay in the same ballpark.
		if row.MultiPairResult < row.BaseSpeedup*0.7 {
			t.Errorf("%s: multi-pair speedup %.2f far below single-pair %.2f",
				row.Name, row.MultiPairResult, row.BaseSpeedup)
		}
	}
	if fewer != len(rows) {
		t.Errorf("multi-pair took more steps on %d kernels", len(rows)-fewer)
	}
	t.Log("\n" + FormatMultiPair(rows))
}

func TestScheduleAblation(t *testing.T) {
	r := NewRunner()
	rows, err := Schedule(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Scheduled < row.Base*0.7 {
			t.Errorf("%s: scheduling badly hurt (%.2f -> %.2f)", row.Name, row.Base, row.Scheduled)
		}
	}
	t.Log("\n" + FormatSchedule(rows))
}

func TestNormalizeAblation(t *testing.T) {
	r := NewRunner()
	rows, err := Normalize(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Normalized < row.Base*0.7 {
			t.Errorf("%s: normalization badly hurt (%.2f -> %.2f)", row.Name, row.Base, row.Normalized)
		}
	}
	t.Log("\n" + FormatNormalize(rows))
}

// TestDeterminism: the whole evaluation is reproducible — two fresh runners
// produce identical Fig 12 rows.
func TestDeterminism(t *testing.T) {
	a, err := Fig12(NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(NewRunner())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunnerCachesArtifacts: a second request for the same variant returns
// the identical artifact pointer.
func TestRunnerCachesArtifacts(t *testing.T) {
	r := NewRunner()
	k := kernelByName(t, "irs-3")
	a1, err := r.Artifact(k, Variant{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Artifact(k, Variant{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("runner failed to cache the artifact")
	}
	a3, err := r.Artifact(k, Variant{Cores: 2, Speculate: true})
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Error("distinct variants must not share a cache slot")
	}
}

// TestRunnerCanonicalVariant: every spelling of a default lever keys the
// same cache slot, so the paper-default artifact is compiled once.
func TestRunnerCanonicalVariant(t *testing.T) {
	r := NewRunner()
	k := kernelByName(t, "irs-3")
	base, err := r.Artifact(k, Variant{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{
		{Cores: 4, QueueLen: 20},
		{Cores: 4, Partitioner: core.PartitionerHeuristic},
		{Cores: 4, SearchBudget: 48, SearchSeed: 1},
		{Cores: 4, QueueLen: 20, Partitioner: core.PartitionerHeuristic, SearchBudget: 48, SearchSeed: 1},
	} {
		a, err := r.Artifact(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if a != base {
			t.Errorf("%+v compiled its own artifact; want the default's", v)
		}
	}
	q8, err := r.Artifact(k, Variant{Cores: 4, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	if q8 == base {
		t.Error("a non-default queue length shares the default's artifact")
	}
}

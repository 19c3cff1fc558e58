package main

// Golden tests for the evaluation outputs the figures command emits.
// The experiments package is fully seeded, so these renderings are
// deterministic end to end; a golden drift means either an intended
// simulator change (rerun with -update) or a regression in the paper
// reproduction (investigate before updating).

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"primecache/internal/experiments"
	"primecache/internal/report"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create golden files)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (rerun with -update if intended).\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func renderTable(t *testing.T, tab *report.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGoldenFigure4 pins the paper's headline figure: prime vs direct
// miss ratio across strides.
func TestGoldenFigure4(t *testing.T) {
	checkGolden(t, "figure4.txt", renderTable(t, experiments.Figure4().Table()))
}

// TestGoldenCrossCheck pins the analytic-vs-simulation agreement table.
func TestGoldenCrossCheck(t *testing.T) {
	checkGolden(t, "crosscheck.txt", renderTable(t, experiments.CrossCheck()))
}

// TestGoldenSummary pins the headline summary table the command prints
// for -fig summary.
func TestGoldenSummary(t *testing.T) {
	checkGolden(t, "summary.txt", renderTable(t, experiments.Summary()))
}

// TestGoldenFigure4SVG pins the SVG rendering path the -svg flag uses.
func TestGoldenFigure4SVG(t *testing.T) {
	f := experiments.Figure4()
	ps := make([]report.PlotSeries, len(f.Series))
	for i, s := range f.Series {
		ps[i] = report.PlotSeries{Name: s.Name, X: s.X, Y: s.Y}
	}
	var b bytes.Buffer
	if err := report.WriteSVG(&b, f.Title, f.XLabel, f.YLabel, ps, 640, 400); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure4.svg", b.Bytes())
}

// TestGoldenPrefetch pins the §2.2 prefetching comparison, whose
// sequential and stride columns run PrefetchCache.
func TestGoldenPrefetch(t *testing.T) {
	checkGolden(t, "prefetch.txt", renderTable(t, experiments.PrefetchTable()))
}

// TestGoldenKernels pins the kernel suite's miss ratios across every
// organisation, the stride prefetcher among them.
func TestGoldenKernels(t *testing.T) {
	checkGolden(t, "kernels.txt", renderTable(t, experiments.KernelTable()))
}

// TestGoldenKernelConflicts pins the kernel suite's conflict misses
// across every organisation.
func TestGoldenKernelConflicts(t *testing.T) {
	checkGolden(t, "kernel_conflicts.txt", renderTable(t, experiments.KernelConflictTable()))
}

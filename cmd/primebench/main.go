// Command primebench runs the kernel benchmark suite — SAXPY, blocked
// matrix multiply, blocked LU, the four-step FFT, blocked transpose, a
// 5-point stencil, and conjugate gradient, all computing real results —
// against six cache organisations and prints the miss and conflict
// matrices.
//
// Simulator speed is measured elsewhere: `go test -bench` for the
// microbenchmarks and `bash perfbench/run.sh` for the end-to-end
// benchmark (see EXPERIMENTS.md "Performance tracking").
package main

import (
	"flag"
	"fmt"
	"os"

	"primecache/internal/experiments"
	"primecache/internal/report"
)

func main() {
	conflicts := flag.Bool("conflicts", false, "print conflict-miss counts instead of miss ratios")
	both := flag.Bool("both", false, "print both matrices")
	md := flag.Bool("md", false, "emit Markdown")
	flag.Parse()

	emit := func(t *report.Table) {
		var err error
		if *md {
			err = t.WriteMarkdown(os.Stdout)
		} else {
			err = t.WriteText(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "primebench:", err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *both || !*conflicts {
		emit(experiments.KernelTable())
	}
	if *both || *conflicts {
		emit(experiments.KernelConflictTable())
	}
}

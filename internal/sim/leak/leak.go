// Package leak is a goroutine-leak checker for test suites and the
// chaos harness: it snapshots the live goroutines, filters the ones the
// runtime and test framework own, and reports whatever is left. The
// server, cluster, and client suites assert through Main that they end
// with no stray prober tickers, hedge timers, sweep fan-out goroutines,
// or keep-alive loops; the chaos harness runs the same check at quiesce as
// one of its invariants.
package leak

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignored are stack substrings marking goroutines the checker must not
// count: the test framework itself, signal plumbing, and this package's
// own snapshot machinery.
var ignored = []string{
	"testing.Main(",
	"testing.(*M).",
	"testing.(*T).Run(",
	"testing.runFuzzing(",
	"testing.tRunner.func", // tRunner cleanup goroutine parked on a select
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ReadTrace",
	"primecache/internal/sim/leak.Snapshot",
}

// Snapshot returns the stacks of all interesting live goroutines, one
// string per goroutine. The calling goroutine is excluded.
func Snapshot() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
stacks:
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the goroutine running Snapshot
		}
		for _, ig := range ignored {
			if strings.Contains(g, ig) {
				continue stacks
			}
		}
		out = append(out, g)
	}
	return out
}

// Wait polls Snapshot until it comes back empty or timeout elapses,
// returning the survivors. The poll gives connection read-loops and
// draining workers a moment to notice closed listeners — a goroutine
// that is merely *exiting* is not a leak, one that survives the whole
// window is.
func Wait(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	for {
		left := Snapshot()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Check fails t if goroutines are still running when the test ends.
// Call it directly at the end of a test, or early as
// `defer leak.Check(t)` around the whole body.
func Check(t testing.TB) {
	t.Helper()
	if left := Wait(2 * time.Second); len(left) > 0 {
		t.Errorf("leaked %d goroutine(s):\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// Main wraps testing.M.Run with a suite-level leak check: after every
// test in the package has passed, no interesting goroutine may remain.
// Use from TestMain:
//
//	func TestMain(m *testing.M) { leak.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := Wait(5 * time.Second); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leak: suite leaked %d goroutine(s):\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

package primecache

// End-to-end tests of the command-line tools: build each binary once and
// drive it the way a user would, checking real stdout. Skipped under
// -short.

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"primecache/internal/client"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// buildTool compiles ./cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, stdin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()

	t.Run("figures", func(t *testing.T) {
		bin := buildTool(t, dir, "figures")
		out := runTool(t, bin, "", "-fig", "7")
		for _, want := range []string{"Figure 7", "CC-prime", "t_m"} {
			if !strings.Contains(out, want) {
				t.Errorf("figures -fig 7 missing %q:\n%s", want, out)
			}
		}
		out = runTool(t, bin, "", "-fig", "summary", "-md")
		if !strings.Contains(out, "| quantity |") {
			t.Errorf("markdown summary malformed:\n%s", out)
		}
		out = runTool(t, bin, "", "-fig", "8", "-plot")
		if !strings.Contains(out, "|") || !strings.Contains(out, "* MM") {
			t.Errorf("plot output malformed:\n%s", out)
		}
		// SVG output.
		svgDir := t.TempDir()
		runTool(t, bin, "", "-fig", "9", "-svg", svgDir)
		data, err := os.ReadFile(filepath.Join(svgDir, "figure9.svg"))
		if err != nil || !strings.Contains(string(data), "<svg") {
			t.Errorf("svg file: %v", err)
		}
		// Custom config.
		cfg := filepath.Join(dir, "sweep.json")
		os.WriteFile(cfg, []byte(`{"name":"it","banks":64,"tm":32,"b":1024,"r":0,"pds":0.25,"p1":0.25,"n":65536,"sweep":"tm","from":8,"to":16,"step":8,"models":["direct","prime"]}`), 0o644)
		out = runTool(t, bin, "", "-config", cfg)
		if !strings.Contains(out, "custom: it") {
			t.Errorf("custom sweep output:\n%s", out)
		}
	})

	t.Run("vcachesim", func(t *testing.T) {
		bin := buildTool(t, dir, "vcachesim")
		out := runTool(t, bin, "", "-cache", "prime", "-pattern", "strided", "-stride", "512", "-n", "1024", "-passes", "2")
		if !strings.Contains(out, "conflict 0") && !strings.Contains(out, "conflict") {
			t.Errorf("vcachesim output:\n%s", out)
		}
		if !strings.Contains(out, "mersenne adder steps") {
			t.Errorf("missing adder steps:\n%s", out)
		}
		// Trace file round trip with -fit -json.
		tf := filepath.Join(dir, "t.trace")
		os.WriteFile(tf, []byte("R 0 1\nR 1000 1\nR 2000 1\nR 3000 1\n"), 0o644)
		out = runTool(t, bin, "", "-cache", "direct", "-tracefile", tf, "-json")
		if !strings.Contains(out, `"Accesses": 8`) {
			t.Errorf("json output:\n%s", out)
		}
	})

	t.Run("vcmodel", func(t *testing.T) {
		bin := buildTool(t, dir, "vcmodel")
		out := runTool(t, bin, "", "-banks", "64", "-tm", "32", "-b", "2048")
		for _, want := range []string{"cycles per result", "CC-prime", "cross-interference"} {
			if !strings.Contains(out, want) {
				t.Errorf("vcmodel missing %q:\n%s", want, out)
			}
		}
		out = runTool(t, bin, "", "-sensitivity", "0.25")
		if !strings.Contains(out, "sensitivity") || !strings.Contains(out, "P_ds") {
			t.Errorf("sensitivity output:\n%s", out)
		}
	})

	t.Run("tracegen", func(t *testing.T) {
		bin := buildTool(t, dir, "tracegen")
		out := runTool(t, bin, "", "-pattern", "strided", "-stride", "7", "-n", "8")
		lines := strings.Count(strings.TrimSpace(out), "\n") + 1
		if lines != 8 {
			t.Errorf("tracegen emitted %d lines, want 8:\n%s", lines, out)
		}
		if !strings.HasPrefix(out, "R 0 1") {
			t.Errorf("first ref: %q", strings.SplitN(out, "\n", 2)[0])
		}
	})

	t.Run("vasm", func(t *testing.T) {
		bin := buildTool(t, dir, "vasm")
		asm := filepath.Join(dir, "p.vasm")
		os.WriteFile(asm, []byte("loads s1, 0\nloads s2, 1\nloop 4\n addss s1, s1, s2\nendloop\n"), 0o644)
		out := runTool(t, bin, "", "-file", asm, "-disasm")
		for _, want := range []string{"cycles:", "s1=4", "loop   4"} {
			if !strings.Contains(out, want) {
				t.Errorf("vasm missing %q:\n%s", want, out)
			}
		}
		// Stdin mode with a cache.
		out = runTool(t, bin, "setvl 8\nloada a0, 0\nloada a1, 1\nloadv v0, (a0), a1\n", "-file", "-", "-cache", "prime")
		if !strings.Contains(out, "cache:") {
			t.Errorf("vasm cache stats missing:\n%s", out)
		}
	})

	t.Run("vcached", func(t *testing.T) {
		bin := buildTool(t, dir, "vcached")
		// -addr :0 binds a free port; the daemon logs the actual address.
		// A tiny -max-refs makes job_too_large reachable with a small job.
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-max-refs", "100000", "-drain", "10s")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()

		// Parse "vcached listening on 127.0.0.1:PORT (...)" from the log.
		addrc := make(chan string, 1)
		logc := make(chan string, 1)
		go func() {
			var buf strings.Builder
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				buf.WriteString(line + "\n")
				if i := strings.Index(line, "listening on "); i >= 0 {
					addr := line[i+len("listening on "):]
					if j := strings.IndexByte(addr, ' '); j >= 0 {
						addr = addr[:j]
					}
					select {
					case addrc <- addr:
					default:
					}
				}
			}
			logc <- buf.String()
		}()
		var addr string
		select {
		case addr = <-addrc:
		case <-time.After(10 * time.Second):
			t.Fatal("vcached did not log its listen address")
		}

		c := client.New("http://"+addr, client.WithSeed(1))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := c.Healthz(ctx); err != nil {
			t.Fatalf("healthz: %v", err)
		}
		res, err := c.Simulate(ctx, server.SimulateRequest{
			Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096},
			Passes:  2,
		})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if res.Stats.Accesses != 8192 {
			t.Errorf("accesses = %d, want 8192", res.Stats.Accesses)
		}
		// Above the flag-configured -max-refs cap: typed job_too_large.
		_, err = c.Simulate(ctx, server.SimulateRequest{
			Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 200_000},
		})
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != server.CodeJobTooLarge {
			t.Errorf("oversized job err = %v, want job_too_large", err)
		}
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if stats.Admission.Capacity == 0 {
			t.Error("stats missing admission capacity")
		}

		// SIGTERM: the daemon drains and exits cleanly. Wait for the
		// stderr scanner to hit EOF (the process exiting) before calling
		// cmd.Wait — Wait closes the pipe and would race the final log
		// lines out from under the scanner.
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var logs string
		select {
		case logs = <-logc:
		case <-time.After(15 * time.Second):
			t.Fatal("vcached did not exit after SIGTERM")
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("vcached exited with %v:\n%s", err, logs)
		}
		if !strings.Contains(logs, "drained") {
			t.Errorf("shutdown log missing drain message:\n%s", logs)
		}
	})

	t.Run("primebench", func(t *testing.T) {
		bin := buildTool(t, dir, "primebench")
		out := runTool(t, bin, "", "-conflicts")
		for _, want := range []string{"kernel", "prime", "fft 128x128"} {
			if !strings.Contains(out, want) {
				t.Errorf("primebench missing %q:\n%s", want, out)
			}
		}
	})
}

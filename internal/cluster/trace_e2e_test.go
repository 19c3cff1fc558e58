package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/obs"
	"primecache/internal/server"
	"primecache/internal/sim"
	"primecache/internal/trace"
)

// traceSweep is a small batch with every job distinct (so memoization
// and single-flight cannot make the second run's spans differ from the
// first) spanning both simulate and model evaluation paths.
func traceSweep() server.SweepRequest {
	var req server.SweepRequest
	for i := 0; i < 9; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Simulate: &server.SimulateRequest{
			Cache:   cache.Spec{Kind: "prime", C: 13},
			Pattern: trace.Pattern{Name: "strided", Stride: int64(3 + 2*i), N: 256 + 16*i, Stream: 1},
			Passes:  1,
		}})
	}
	for i := 0; i < 3; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Model: &server.ModelRequest{B: 512 << uint(i), Tm: 16 + 8*i}})
	}
	return req
}

// waitUntil polls cond on the wall clock: trace publication happens
// after the HTTP response is written (the edge span ends when the
// handler returns), so the ring can trail the response by a scheduler
// beat even though every span is complete.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// stitchSweepTrace waits for the coordinator's newest trace and every
// backend-side piece of it, then renders the merged span forest.
func stitchSweepTrace(t *testing.T, lc *LocalCluster, ct *obs.Tracer, before uint64) (obs.TraceID, string) {
	t.Helper()
	waitUntil(t, "coordinator trace publication", func() bool { return ct.Finished() > before })
	tds := ct.Traces()
	td := tds[len(tds)-1]
	legs := 0
	for _, s := range td.Spans {
		if s.Name == "sweep.leg" {
			legs++
		}
	}
	if legs == 0 {
		t.Fatalf("coordinator trace %v has no sweep.leg spans:\n%s", td.Trace, td.Tree)
	}
	// Each leg lands on a distinct backend (no failover here), and a
	// backend publishes its piece of the trace when its edge span ends —
	// racing the coordinator's own publication, hence the wait.
	var stitched []obs.SpanData
	waitUntil(t, fmt.Sprintf("%d backend traces for %v", legs, td.Trace), func() bool {
		stitched = append([]obs.SpanData(nil), td.Spans...)
		found := 0
		for _, b := range lc.Backends {
			if btd, ok := b.Server.Tracer().TraceByID(td.Trace); ok {
				found++
				stitched = append(stitched, btd.Spans...)
			}
		}
		return found == legs
	})
	return td.Trace, obs.RenderTree(stitched)
}

// treeLine is one rendered span with its indentation depth resolved.
type treeLine struct {
	depth int
	text  string
}

func parseTree(t *testing.T, tree string) []treeLine {
	t.Helper()
	var out []treeLine
	for _, ln := range strings.Split(strings.TrimRight(tree, "\n"), "\n") {
		trimmed := strings.TrimLeft(ln, " ")
		indent := len(ln) - len(trimmed)
		if indent%2 != 0 {
			t.Fatalf("odd indent in tree line %q", ln)
		}
		out = append(out, treeLine{depth: indent / 2, text: trimmed})
	}
	return out
}

// countAt counts lines at depth whose text starts with prefix.
func countAt(lines []treeLine, depth int, prefix string) int {
	n := 0
	for _, l := range lines {
		if l.depth == depth && strings.HasPrefix(l.text, prefix) {
			n++
		}
	}
	return n
}

// TestClusterTraceDeterministicSpanTree is the end-to-end trace
// acceptance check: a sweep through a traced 3-node cluster on a
// virtual clock yields a stitched coordinator+backend span forest with
// the exact expected topology, and running the identical sweep again
// against the same cluster renders a byte-identical tree — span
// creation races, goroutine interleaving, and map iteration order must
// all be invisible in the rendering.
func TestClusterTraceDeterministicSpanTree(t *testing.T) {
	clk := sim.NewVirtual()
	ct := obs.NewTracer(obs.TracerOptions{Origin: "coord", Clock: clk})
	// Memoization off so the second run recomputes every job and its
	// memo.lookup spans still say hit=false.
	node := server.Options{Workers: 2, MemoEntries: -1, Clock: clk}
	lc, err := StartLocal(3, node, Options{ProbeInterval: -1, HedgeAfter: -1, Clock: clk, Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	req := traceSweep()
	// Whether a job ran on a simulator an earlier job of its cache spec
	// left behind depends on which job a worker picked up first and on
	// the collector, like a duration on the wall clock; the rendering
	// keeps the attribute but masks its value.
	reused := regexp.MustCompile(`reused=(true|false)`)
	run := func() (obs.TraceID, string) {
		before := ct.Finished()
		postSweep(t, lc.URL(), req)
		tid, tree := stitchSweepTrace(t, lc, ct, before)
		return tid, reused.ReplaceAllString(tree, "reused=*")
	}
	tid1, tree1 := run()
	tid2, tree2 := run()
	if tid1 == tid2 {
		t.Fatalf("both runs claim trace %v — the ring returned a stale trace", tid1)
	}
	if tree1 != tree2 {
		t.Fatalf("same sweep on the same virtual-clock cluster rendered different trees:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", tree1, tree2)
	}

	lines := parseTree(t, tree1)
	// Virtual clock, never advanced: every span must report zero
	// duration. Any non-zero duration means a span measured wall time.
	for _, l := range lines {
		if !strings.HasSuffix(l.text, " durUs=0") {
			t.Errorf("span escaped the virtual clock: %q", l.text)
		}
	}
	// Exactly one root: the coordinator's edge span.
	if n := countAt(lines, 0, ""); n != 1 || lines[0].text != "coord.sweep durUs=0" {
		t.Fatalf("tree has %d roots, first %q; want the single coordinator edge span:\n%s", n, lines[0].text, tree1)
	}
	legs := countAt(lines, 1, "sweep.leg ")
	if legs < 2 {
		t.Errorf("sweep used %d legs, want scatter across >= 2 backends:\n%s", legs, tree1)
	}
	if n := countAt(lines, 1, ""); n != legs {
		t.Errorf("%d non-leg spans at depth 1:\n%s", n-legs, tree1)
	}
	for _, l := range lines {
		if l.depth == 1 && !strings.Contains(l.text, "ok=true") {
			t.Errorf("leg span not marked ok: %q", l.text)
		}
	}
	// Each leg's child is the backend's sweep edge span — the remote
	// stitch across the HTTP hop.
	if n := countAt(lines, 2, "sweep status=200 "); n != legs {
		t.Errorf("%d backend sweep edge spans for %d legs:\n%s", n, legs, tree1)
	}
	if n := countAt(lines, 3, "admit "); n != legs {
		t.Errorf("%d admit spans for %d legs:\n%s", n, legs, tree1)
	}
	jobs := len(req.Jobs)
	if n := countAt(lines, 3, "sweep.job idx="); n != jobs {
		t.Errorf("%d sweep.job spans for %d jobs:\n%s", n, jobs, tree1)
	}
	for _, want := range []string{"memo.lookup hit=false ", "pool.wait ", "pool.run "} {
		if n := countAt(lines, 4, want); n != jobs {
			t.Errorf("%d %q spans for %d jobs:\n%s", n, want, jobs, tree1)
		}
	}
	if n := countAt(lines, 5, "eval."); n == 0 {
		t.Errorf("no eval spans under pool.run:\n%s", tree1)
	}
	for _, l := range lines {
		if strings.HasPrefix(l.text, "eval.replay ") && !strings.Contains(l.text, " reused=* ") {
			t.Errorf("replay span without a reused attribute: %q", l.text)
		}
	}
}

// TestClusterTraceMemoizedSpanTree is the memo-on companion of
// TestClusterTraceDeterministicSpanTree: once a sweep has warmed the
// backends' memos, every job of the same sweep renders as a sweep.job
// whose one child is memo.lookup hit=true — answered inline, with no
// pool span — and the stitched tree is the same on every run.
func TestClusterTraceMemoizedSpanTree(t *testing.T) {
	clk := sim.NewVirtual()
	ct := obs.NewTracer(obs.TracerOptions{Origin: "coord", Clock: clk})
	node := server.Options{Workers: 2, Clock: clk}
	lc, err := StartLocal(3, node, Options{ProbeInterval: -1, HedgeAfter: -1, Clock: clk, Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	req := traceSweep()
	run := func() string {
		before := ct.Finished()
		postSweep(t, lc.URL(), req)
		_, tree := stitchSweepTrace(t, lc, ct, before)
		return tree
	}
	run() // warms the memos
	tree1, tree2 := run(), run()
	if tree1 != tree2 {
		t.Fatalf("same memoized sweep rendered different trees:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", tree1, tree2)
	}

	lines := parseTree(t, tree1)
	jobs := len(req.Jobs)
	if n := countAt(lines, 3, "sweep.job idx="); n != jobs {
		t.Errorf("%d sweep.job spans for %d jobs:\n%s", n, jobs, tree1)
	}
	if n := countAt(lines, 4, ""); n != jobs || countAt(lines, 4, "memo.lookup hit=true ") != jobs {
		t.Errorf("want each of %d jobs to have the one child memo.lookup hit=true:\n%s", jobs, tree1)
	}
	for _, l := range lines {
		if l.depth > 4 || strings.HasPrefix(l.text, "pool.") {
			t.Errorf("memoized sweep rendered %q at depth %d:\n%s", l.text, l.depth, tree1)
		}
	}
}

// TestClusterTracePropagatesCallerHeader pins the propagation contract
// at the coordinator edge: a request that already carries
// X-Vcache-Trace must join that trace (remote edge span under the
// caller's span ID), not start a fresh one.
func TestClusterTracePropagatesCallerHeader(t *testing.T) {
	ct := obs.NewTracer(obs.TracerOptions{Origin: "coord"})
	lc, err := StartLocal(2, server.Options{Workers: 2}, Options{ProbeInterval: -1, HedgeAfter: -1, Tracer: ct})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	caller := obs.NewTracer(obs.TracerOptions{Origin: "caller"})
	ctx, root := caller.StartSpan(context.Background(), "client.sweep")
	body, err := json.Marshal(traceSweep())
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, lc.URL()+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, httpReq.Header)
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	root.End()

	waitUntil(t, "coordinator trace publication", func() bool { return ct.Finished() >= 1 })
	td, ok := ct.TraceByID(root.TraceID())
	if !ok {
		t.Fatalf("coordinator ring has no trace %v — the caller's header was dropped", root.TraceID())
	}
	edge := td.Spans[0]
	for _, s := range td.Spans {
		if s.Name == "coord.sweep" {
			edge = s
		}
	}
	if edge.Name != "coord.sweep" || !edge.Remote {
		t.Fatalf("edge span = %+v, want a remote coord.sweep span", edge)
	}
}

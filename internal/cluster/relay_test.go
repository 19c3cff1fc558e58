package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/server"
	"primecache/internal/sim"
	"primecache/internal/trace"
)

// startRelayCluster starts one real backend per entry of nodes, each
// behind wrap(i, handler), and a coordinator over them; everything is
// torn down when the test ends.
func startRelayCluster(t *testing.T, nodes []server.Options, wrap func(i int, h http.Handler) http.Handler) (*Coordinator, *httptest.Server, []string) {
	t.Helper()
	var urls []string
	for i, opts := range nodes {
		srv := server.New(opts)
		ts := httptest.NewServer(wrap(i, srv.Handler()))
		t.Cleanup(func() {
			ts.CloseClientConnections()
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
	}
	coord, err := New(Options{Backends: urls, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		cts.Close()
		coord.Close()
	})
	return coord, cts, urls
}

// sweepBodyLines runs h's /v1/sweep to completion and returns its body
// split into lines: the header, then result i at 1+2i with the ","
// separators between, then the trailer.
func sweepBodyLines(h http.Handler, r *http.Request) [][]byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
}

// abortAfter writes the header and the first k result lines of h's
// /v1/sweep body, then drops the connection, like a backend that dies
// mid-stream.
func abortAfter(k int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		lines := sweepBodyLines(h, r)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bytes.Join(lines[:2*k], nil))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
}

// breakFramingAt writes h's /v1/sweep body with result line k cut in
// half and closed with a '}', so it still starts like a result and ends
// like a JSON object; every other line is intact.
func breakFramingAt(k int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			h.ServeHTTP(w, r)
			return
		}
		lines := sweepBodyLines(h, r)
		line := lines[1+2*k]
		lines[1+2*k] = append(append([]byte{}, line[:len(line)/2]...), "}\n"...)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bytes.Join(lines, nil))
	})
}

// groupOn returns how many of req's jobs have url as ring primary.
func groupOn(c *Coordinator, req server.SweepRequest, url string) int {
	n := 0
	for _, j := range req.Jobs {
		if c.currentRing().Primary(j.Key()) == url {
			n++
		}
	}
	return n
}

// singleNodeSweep is the reference body: req against one standalone
// node.
func singleNodeSweep(t *testing.T, req server.SweepRequest) []byte {
	t.Helper()
	single := server.New(server.Options{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()
	return postSweep(t, sts.URL, req)
}

// TestRelayLegDiesMidStream: a backend writes k results and dies. The k
// results stand and are relayed once; only the rest of its group is
// re-scattered, and the cluster's body is byte-equal to a single
// node's.
func TestRelayLegDiesMidStream(t *testing.T) {
	const k = 3
	coord, cts, urls := startRelayCluster(t, make([]server.Options, 3), func(i int, h http.Handler) http.Handler {
		if i == 1 {
			return abortAfter(k, h)
		}
		return h
	})
	req := sweep64()
	g := groupOn(coord, req, urls[1])
	if g <= k {
		t.Fatalf("victim's group has %d jobs, need more than %d", g, k)
	}
	got := postSweep(t, cts.URL, req)
	if want := singleNodeSweep(t, req); !bytes.Equal(got, want) {
		t.Fatalf("cluster body differs from single node's after a mid-stream death:\n%s", got)
	}
	if n := coord.reroutes.Value(); n != uint64(g-k) {
		t.Errorf("reroutes = %d, want %d: the %d results read before the death must not be re-scattered", n, g-k, k)
	}
}

// TestRelayBrokenFramingFailsOver: a backend body whose result k is
// not a whole JSON line fails the leg; no part of it is relayed, the
// results before it stand, and the rest fail over.
func TestRelayBrokenFramingFailsOver(t *testing.T) {
	const k = 2
	coord, cts, urls := startRelayCluster(t, make([]server.Options, 3), func(i int, h http.Handler) http.Handler {
		if i == 0 {
			return breakFramingAt(k, h)
		}
		return h
	})
	req := sweep64()
	g := groupOn(coord, req, urls[0])
	if g <= k {
		t.Fatalf("victim's group has %d jobs, need more than %d", g, k)
	}
	got := postSweep(t, cts.URL, req)
	if !json.Valid(got) {
		t.Fatalf("cluster relayed a broken line:\n%s", got)
	}
	if want := singleNodeSweep(t, req); !bytes.Equal(got, want) {
		t.Fatalf("cluster body differs from single node's after a framing break:\n%s", got)
	}
	if n := coord.reroutes.Value(); n != uint64(g-k) {
		t.Errorf("reroutes = %d, want %d", n, g-k)
	}
}

// TestRelayTemporaryJobErrorRetried: a per-job overloaded errorCode in
// a backend's stream is not relayed; that one job is retried on its
// replica.
func TestRelayTemporaryJobErrorRetried(t *testing.T) {
	nodes := make([]server.Options, 3)
	nodes[2].Faults = func(stage string, seq uint64) server.Fault {
		if stage == "compute" && seq == 1 {
			return server.Fault{Err: server.Errf(server.CodeOverloaded, "injected")}
		}
		return server.Fault{}
	}
	coord, cts, _ := startRelayCluster(t, nodes, func(_ int, h http.Handler) http.Handler { return h })
	req := sweep64()
	got := postSweep(t, cts.URL, req)
	if want := singleNodeSweep(t, req); !bytes.Equal(got, want) {
		t.Fatalf("cluster body differs from single node's after a per-job overload:\n%s", got)
	}
	if n := coord.reroutes.Value(); n != 1 {
		t.Errorf("reroutes = %d, want 1", n)
	}
}

// TestRelayStreamsBeforeLegEnds: on one backend, job 0 is a memo hit
// and job 1 blocks on a virtual clock. Result 0 must reach the client
// while job 1 is still running, so the coordinator relays each result
// as it arrives instead of waiting for the whole leg.
func TestRelayStreamsBeforeLegEnds(t *testing.T) {
	clk := sim.NewVirtual()
	var armed atomic.Bool
	node := server.Options{Clock: clk, Faults: func(stage string, _ uint64) server.Fault {
		if stage == "compute" && armed.Load() {
			return server.Fault{Latency: time.Hour}
		}
		return server.Fault{}
	}}
	_, cts, _ := startRelayCluster(t, []server.Options{node}, func(_ int, h http.Handler) http.Handler { return h })

	warm := server.SweepJob{Model: &server.ModelRequest{Tm: 24}}
	postSweep(t, cts.URL, server.SweepRequest{Jobs: []server.SweepJob{warm}})
	armed.Store(true)
	slow := server.SweepJob{Simulate: &server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 64, N: 1024},
	}}
	body, err := json.Marshal(server.SweepRequest{Jobs: []server.SweepJob{warm, slow}})
	if err != nil {
		t.Fatal(err)
	}
	// The request and the read of result 0 run aside, so a coordinator
	// that holds back the response headers fails the test too.
	type first struct {
		resp *http.Response
		sr   *server.SweepReader
		err  error
	}
	firstc := make(chan first, 1)
	go func() {
		resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			firstc <- first{err: err}
			return
		}
		sr := server.NewSweepReader(resp.Body)
		l, err := sr.Next()
		if err == nil && (l.Index != 0 || l.ErrorCode != "") {
			err = fmt.Errorf("result 0 read as index %d, error code %q", l.Index, l.ErrorCode)
		}
		firstc <- first{resp, sr, err}
	}()
	var f first
	select {
	case f = <-firstc:
	case <-time.After(10 * time.Second):
		clk.BlockUntil(1)
		clk.Advance(time.Hour) // let the handlers finish before cleanup
		if f = <-firstc; f.resp != nil {
			f.resp.Body.Close()
		}
		t.Fatal("result 0 was held back until the slow job 1 finished")
	}
	if f.resp != nil {
		defer f.resp.Body.Close()
	}
	if f.err != nil {
		t.Fatalf("reading result 0: %v", f.err)
	}
	sr := f.sr
	clk.BlockUntil(1)
	clk.Advance(time.Hour)
	l, err := sr.Next()
	if err != nil || l.Index != 1 || l.ErrorCode != "" {
		t.Fatalf("result 1: %+v, %v", l, err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after the last result: %v, want io.EOF", err)
	}
}

// TestRelaySingleJobBrokenBodyFailsOver: a backend whose /v1/simulate
// 200 body is not one JSON value fails the call; the body is never
// relayed, and the job fails over to the next replica, whose answer
// matches a single node's.
func TestRelaySingleJobBrokenBodyFailsOver(t *testing.T) {
	coord, cts, urls := startRelayCluster(t, make([]server.Options, 3), func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/simulate" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("ETag", rec.Header().Get("ETag"))
			_, _ = w.Write(append(append([]byte{}, body[:len(body)/2]...), "}\n"...))
		})
	})
	req := keyOnBackend(t, coord.Ring(), urls[0])
	single := server.New(server.Options{})
	defer single.Close()
	sts := httptest.NewServer(single.Handler())
	defer sts.Close()

	resp, got := postJob(t, cts.URL, "/v1/simulate", req, "")
	if resp.StatusCode != http.StatusOK || !json.Valid(got) {
		t.Fatalf("cluster relayed a broken answer: status %d\n%s", resp.StatusCode, got)
	}
	if _, want := postJob(t, sts.URL, "/v1/simulate", req, ""); !bytes.Equal(got, want) {
		t.Fatalf("cluster body differs from single node's after a broken answer:\n%s", got)
	}
	if n := coord.reroutes.Value(); n != 1 {
		t.Errorf("reroutes = %d, want 1", n)
	}
}

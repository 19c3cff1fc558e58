package cluster

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting it under
// -update:
//
//	go test ./internal/cluster -run Golden -update
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
	if string(got) != string(want) {
		t.Errorf("%s: output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(rerun with -update if the change is intended)", name, got, want)
	}
}

// goldenCluster starts a deterministic three-backend cluster for the
// coordinator goldens: every clock is one virtual clock (all latencies
// and uptimes read zero), probing and hedging are off, and one model
// job is chosen per backend by its ring primary, so every backend row
// carries the same values whatever ports the listeners bound. The
// cluster sweeps those jobs twice (three memo misses, then three hits)
// and re-probes so the warm-key counts are current. mask replaces every
// backend URL in a body with one placeholder.
func goldenCluster(t *testing.T) (lc *LocalCluster, mask func([]byte) []byte) {
	t.Helper()
	clk := sim.NewVirtual()
	lc, err := StartLocal(3, server.Options{Workers: 2, Clock: clk},
		Options{ProbeInterval: -1, HedgeAfter: -1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)

	ring := lc.Coordinator.Ring()
	owned := map[string]bool{}
	var req server.SweepRequest
	for tm := 16; len(owned) < len(lc.Backends); tm++ {
		if tm > 4096 {
			t.Fatal("found no model job for some backend")
		}
		job := server.SweepJob{Model: &server.ModelRequest{Tm: tm}}
		if p := ring.Primary(job.Key()); !owned[p] {
			owned[p] = true
			req.Jobs = append(req.Jobs, job)
		}
	}
	postSweep(t, lc.URL(), req)
	postSweep(t, lc.URL(), req)
	lc.Coordinator.CheckHealth(context.Background())

	mask = func(b []byte) []byte {
		s := string(b)
		for _, be := range lc.Backends {
			s = strings.ReplaceAll(s, be.URL(), "http://backend")
		}
		return []byte(s)
	}
	return lc, mask
}

// getBody fetches url and returns the response with its body read.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return resp, body
}

// TestCoordinatorMetricsGolden pins the coordinator's whole /metrics
// exposition byte for byte.
func TestCoordinatorMetricsGolden(t *testing.T) {
	lc, mask := goldenCluster(t)
	resp, body := getBody(t, lc.URL()+"/metrics")
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("/metrics content type = %q, want %q", got, obs.PromContentType)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("coordinator /metrics is not valid Prometheus text: %v\n%s", err, body)
	}
	checkGolden(t, "metrics.golden", mask(body))
}

// TestCoordinatorStatsGolden pins the coordinator's /v1/stats answer:
// the Deprecation and Sunset headers and the schema-2 body with its
// aggregated memo, persist, admission and partial blocks.
func TestCoordinatorStatsGolden(t *testing.T) {
	lc, mask := goldenCluster(t)
	resp, body := getBody(t, lc.URL()+"/v1/stats")
	got := "deprecation: " + resp.Header.Get("Deprecation") + "\nsunset: " + resp.Header.Get("Sunset") + "\n\n" + string(body)
	checkGolden(t, "stats.golden", mask([]byte(got)))
}

// familyNames lists the metric families of a /metrics scrape, from its
// TYPE lines, each histogram with its _bucket, _sum and _count series.
func familyNames(t *testing.T, url string) []string {
	t.Helper()
	_, body := getBody(t, url+"/metrics")
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("%s/metrics is not valid Prometheus text: %v", url, err)
	}
	var names []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			names = append(names, f[2])
			if f[3] == "histogram" {
				names = append(names, f[2]+"_bucket", f[2]+"_sum", f[2]+"_count")
			}
		}
	}
	return names
}

// TestCoordinatorMetricsFamilySetStable: every family the coordinator
// exports exists from its first scrape; reading /v1/stats and running a
// sweep must not add one.
func TestCoordinatorMetricsFamilySetStable(t *testing.T) {
	lc, err := StartLocal(2, server.Options{Workers: 2}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	before := familyNames(t, lc.URL())
	getBody(t, lc.URL()+"/v1/stats")
	postSweep(t, lc.URL(), traceSweep())
	if after := familyNames(t, lc.URL()); !slices.Equal(before, after) {
		t.Errorf("family set changed after stats and a sweep:\nbefore %v\nafter  %v", before, after)
	}
}

// TestDocumentedFamiliesExported scrapes a persist-enabled node and the
// coordinator in front of it: every vcached_* name OPERATIONS.md or
// API.md tells an operator about must appear in one of the scrapes.
func TestDocumentedFamiliesExported(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocal(1, server.Options{Workers: 2, Persist: store}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	exported := map[string]bool{}
	for _, url := range []string{lc.Backends[0].URL(), lc.URL()} {
		for _, name := range familyNames(t, url) {
			exported[name] = true
		}
	}
	nameRe := regexp.MustCompile(`vcached_[A-Za-z0-9_]*[A-Za-z0-9]`)
	for _, doc := range []string{"OPERATIONS.md", "API.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range nameRe.FindAllString(string(text), -1) {
			if !exported[name] {
				t.Errorf("%s names %s, which neither the node nor the coordinator exports", doc, name)
			}
		}
	}
}

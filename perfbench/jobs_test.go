package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"primecache/internal/trace"
)

var testSeeds = []int64{1, 2, 977}

// opCounts are the per-class operation counts and simulated references
// of a workload's first n operations.
type opCounts struct {
	classes map[string]int
	refs    uint64
}

func serviceCounts(seed int64, wl string, n int) opCounts {
	c := opCounts{classes: map[string]int{}}
	for seq := 0; seq < n; seq++ {
		switch wl {
		case "service-cold":
			class, _ := coldJob(seed, seq)
			c.classes[serviceMenu[class].name]++
			c.refs += classRefs(class)
		case "service-hot":
			name := serviceMenu[seq%len(serviceMenu)].name
			if hotConditional(seq) {
				name += "/conditional"
			}
			c.classes[name]++
		case "cluster-sweep":
			for _, j := range clusterWindow(seq) {
				c.classes[serviceMenu[j%len(serviceMenu)].name]++
			}
		}
	}
	return c
}

// TestSeedInvariantWork checks that the seed changes no workload's
// per-class operation counts or simulated reference total, for run
// lengths that end mid-menu as well as on a menu boundary.
func TestSeedInvariantWork(t *testing.T) {
	for _, wl := range []string{"service-cold", "service-hot", "cluster-sweep"} {
		for _, n := range []int{1, 3, 7, 10, 11, 12, 43, 44, 45, 1001} {
			want := serviceCounts(testSeeds[0], wl, n)
			for _, seed := range testSeeds[1:] {
				if got := serviceCounts(seed, wl, n); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d ops: seed %d does %v, seed %d does %v", wl, n, seed, got, testSeeds[0], want)
				}
			}
		}
	}
	// A kernels operation is a whole round: the same jobs, reordered.
	var refs []uint64
	for _, seed := range testSeeds {
		inst, err := setupKernels(config{seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		k := inst.(*kernels)
		if len(k.order) != len(k.jobs) {
			t.Fatalf("seed %d: round runs %d of %d jobs", seed, len(k.order), len(k.jobs))
		}
		refs = append(refs, k.refs)
	}
	for i := range refs {
		if refs[i] != refs[0] {
			t.Errorf("kernels: seed %d simulates %d references per round, seed %d %d", testSeeds[i], refs[i], testSeeds[0], refs[0])
		}
	}
}

// TestColdJobsDistinct checks that every service-cold operation is a
// distinct job, so none can be answered from the memo.
func TestColdJobsDistinct(t *testing.T) {
	seen := map[string]int{}
	for seq := 0; seq < 5000; seq++ {
		_, job := coldJob(testSeeds[0], seq)
		if prev, ok := seen[job.Key()]; ok {
			t.Fatalf("operations %d and %d are the same job %s", prev, seq, job.Key())
		}
		seen[job.Key()] = seq
	}
}

// TestClassInstancesAgree checks what the output check relies on: two
// instances of a service class, shifted by different multiples of
// period, simulate to identical statistics.
func TestClassInstancesAgree(t *testing.T) {
	for c, cl := range serviceMenu {
		if cl.sim == nil {
			continue
		}
		var stats []any
		for _, k := range []uint64{0, 1, 1 << 20} {
			req := *serviceJob(c, k).Simulate
			sim, err := req.Cache.Build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := trace.ReplayPattern(sim, req.Pattern, req.Passes)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
		for i := range stats {
			if stats[i] != stats[0] {
				t.Errorf("%s: instance statistics differ: %+v vs %+v", cl.name, stats[i], stats[0])
			}
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the metric
// and workload lists this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string `json:"name"`
		Why    string `json:"why"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls, e2e, layers []named
	for _, w := range workloadList {
		wls = append(wls, named{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{Name: m.name, Unit: m.unit, Better: m.better})
	}
	for _, m := range perLayer {
		layers = append(layers, named{Name: m.name, Unit: m.unit, Better: m.better})
	}
	for _, c := range []struct {
		what      string
		got, want []named
	}{{"workloads", spec.Workloads, wls}, {"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %+v, program reports %+v", c.what, c.got, c.want)
		}
	}
}

package cache_test

import (
	"fmt"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/trace"
)

// TestWideSetsMatchReference diffs caches whose sets are wide enough to
// be found through the line index against the reference simulator,
// which scans: set-associative caches of four sets at 16, 32 and 64
// ways under every policy, and fully-associative caches of 16, 64 and
// 512 lines. Each trace fills, hits and evicts: a fill followed by
// rereads, a cycle over more lines than fit, a hot stream kept resident
// while a cold one with stores streams through one set, and a generated
// multi-stream trace.
func TestWideSetsMatchReference(t *testing.T) {
	var specs []cache.Spec
	for _, ways := range []int{16, 32, 64} {
		for _, policy := range []string{"lru", "fifo", "random"} {
			specs = append(specs, cache.Spec{Kind: "assoc", Lines: 4 * ways, Ways: ways, Policy: policy})
		}
	}
	for _, lines := range []int{16, 64, 512} {
		specs = append(specs, cache.Spec{Kind: "full", Lines: lines})
	}
	g := oracle.NewGen(batchSeed + 5)
	for _, spec := range specs {
		lines := spec.Frames()
		ways, sets := lines, 1
		if spec.Kind == "assoc" {
			ways, sets = spec.Ways, lines/spec.Ways
		}
		traces := []struct {
			name string
			tr   trace.Trace
		}{
			{"fill-reread", trace.Repeat(trace.Strided(0, 1, lines, 1), 3)},
			{"overflow", trace.Repeat(trace.Strided(0, 1, lines+lines/2, 1), 3)},
			{"hot-cold", trace.Interleave(
				trace.Repeat(trace.Strided(1<<16, int64(sets), ways/4, 1), 16),
				trace.StridedWrite(0, int64(sets), 4*ways, 2))},
			{"generated", g.Trace(2048)},
		}
		for _, tc := range traces {
			t.Run(fmt.Sprintf("%s/%s", spec, tc.name), func(t *testing.T) {
				d, err := oracle.Diff(spec, tc.tr)
				if err != nil {
					t.Fatal(err)
				}
				if d != nil {
					t.Fatalf("fast simulator diverged from reference:\n%s", d)
				}
			})
		}
	}
}

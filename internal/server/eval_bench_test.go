package server

import (
	"context"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// evalClasses are the simulated job classes of perfbench's service
// menu: the documented request bodies and the replay slots, each job
// 4096 to 16384 references.
var evalClasses = []struct {
	name string
	req  SimulateRequest
}{
	{"strided512/prime", SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096}, Passes: 4}},
	{"strided512/direct", SimulateRequest{Cache: cache.Spec{Kind: "direct", Lines: 8192},
		Pattern: trace.Pattern{Name: "strided", Stride: 512, N: 4096}}},
	{"strided17/assoc", SimulateRequest{Cache: cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 8192, Stream: 1}, Passes: 2}},
	{"strided3/prime", SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}}},
	{"subblock/prime", SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "subblock", B1: 64, B2: 64}, Passes: 4}},
	{"fft/victim", SimulateRequest{Cache: cache.Spec{Kind: "victim", Lines: 8192},
		Pattern: trace.Pattern{Name: "fft", N: 4096, B2: 64}, Passes: 4}},
	{"rowcol/prime-assoc", SimulateRequest{Cache: cache.Spec{Kind: "prime-assoc", C: 13, Ways: 2},
		Pattern: trace.Pattern{Name: "rowcol", N: 4096}, Passes: 4}},
}

// BenchmarkRunSimulate measures one job of each class end to end
// through runSimulate: "fresh" builds its simulator, as a job whose
// spec no recent job used does; "shelf" takes the simulator the
// previous job left on the shelf.
func BenchmarkRunSimulate(b *testing.B) {
	for _, c := range evalClasses {
		for _, mode := range []string{"fresh", "shelf"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				opt := evalOpts{}
				if mode == "shelf" {
					opt.shelf = &simShelf{}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runSimulate(context.Background(), c.req, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

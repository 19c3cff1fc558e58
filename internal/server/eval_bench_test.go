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
				var shelf *simShelf
				if mode == "shelf" {
					shelf = &simShelf{}
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runSimulate(context.Background(), c.req, shelf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// windowJobs are strided sweeps below analyticMinRefs but above the
// closed form's floor of 4·(2·sets+1) references (twice the guard
// replay), so the server answers them in closed form: 69632 references
// each, against floors of 65532 (prime c=13), 65540 (direct 8192) and
// 1020 (prime c=7).
var windowJobs = []struct {
	name string
	req  SimulateRequest
}{
	{"prime13", SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}, Passes: 17}},
	{"direct8192", SimulateRequest{Cache: cache.Spec{Kind: "direct", Lines: 8192},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}, Passes: 17}},
	{"prime7", SimulateRequest{Cache: cache.Spec{Kind: "prime", C: 7},
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}, Passes: 17}},
}

// BenchmarkClosedFormWindow times each window job as the server answers
// it ("closed-form": runSimulate, whose guard replays a shrunken sweep
// on the simulator the previous job left on the shelf) against
// replaying the whole job on a shelved simulator ("replay").
func BenchmarkClosedFormWindow(b *testing.B) {
	ctx := context.Background()
	for _, j := range windowJobs {
		req := j.req.Normalize()
		b.Run(j.name+"/closed-form", func(b *testing.B) {
			shelf := &simShelf{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := runSimulate(ctx, req, shelf)
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Analytic {
					b.Fatal("window job was replayed, not answered in closed form")
				}
			}
		})
		b.Run(j.name+"/replay", func(b *testing.B) {
			shelf := &simShelf{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb, _, err := shelf.checkout(req.Cache)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := trace.ReplayPatternContext(ctx, sb.sim, req.Pattern, req.Passes, evalChunk); err != nil {
					b.Fatal(err)
				}
				shelf.checkin(sb)
			}
		})
	}
}

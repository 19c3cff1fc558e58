package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// verdict is the outcome of checking a phase's outputs.
type verdict struct {
	bad      int      // operations whose output was wrong
	problems []string // the first few mismatches, for the report
	failed   bool     // some check failed
	digest   string   // hash of every simulated statistic the workload produced
}

const maxProblems = 8

func (v *verdict) problem(format string, args ...any) {
	v.failed = true
	if len(v.problems) < maxProblems {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// digest hashes named statistics in the order they are added.
type digest struct{ h []byte }

func newDigest() *digest { return &digest{} }

func (d *digest) add(name string, v any) {
	b, _ := json.Marshal(v) // plain structs of integers always marshal
	d.h = append(d.h, name...)
	d.h = append(d.h, 0)
	d.h = append(d.h, b...)
	d.h = append(d.h, '\n')
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:8])
}

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// menuOracle replays instance seedBase(seed) of every simulate class
// of the service menu through the reference simulator. Every other
// instance of a class must report the same statistics: their start
// addresses differ by multiples of period (TestClassInstancesAgree).
func menuOracle(seed int64) (map[int]cache.Stats, error) {
	var classes []int
	for c, cl := range serviceMenu {
		if cl.sim != nil {
			classes = append(classes, c)
		}
	}
	stats := make([]cache.Stats, len(classes))
	errs := make([]error, len(classes))
	parallel(len(classes), func(i int) {
		req := serviceJob(classes[i], seedBase(seed)).Simulate.Normalize()
		ref, err := oracle.NewRefSim(req.Cache)
		if err != nil {
			errs[i] = err
			return
		}
		stats[i], errs[i] = trace.ReplayPattern(ref, req.Pattern, req.Passes)
	})
	out := map[int]cache.Stats{}
	for i, c := range classes {
		if errs[i] != nil {
			return nil, fmt.Errorf("oracle %s: %w", serviceMenu[c].name, errs[i])
		}
		out[c] = stats[i]
	}
	return out, nil
}

// classDigest hashes the oracle's statistics of every class, in menu
// order.
func classDigest(want map[int]cache.Stats) string {
	d := newDigest()
	for c := range serviceMenu {
		if st, ok := want[c]; ok {
			d.add(serviceMenu[c].name, st)
		}
	}
	return d.sum()
}

// checkSimulate compares one simulate response with the oracle's
// statistics for its class and with the shape the job asked for.
func checkSimulate(class int, req server.SimulateRequest, got *server.SimulateResponse, want cache.Stats) error {
	req = req.Normalize()
	switch {
	case got.Stats != want:
		return fmt.Errorf("%s: stats %+v, oracle %+v", serviceMenu[class].name, got.Stats, want)
	case got.Analytic != serviceMenu[class].analytic:
		return fmt.Errorf("%s: analytic=%v", serviceMenu[class].name, got.Analytic)
	case got.Degraded:
		return fmt.Errorf("%s: degraded answer", serviceMenu[class].name)
	case got.Passes != req.Passes || got.RefsPerPass != req.Pattern.RefCount():
		return fmt.Errorf("%s: %d passes × %d refs, asked %d × %d", serviceMenu[class].name,
			got.Passes, got.RefsPerPass, req.Passes, req.Pattern.RefCount())
	case got.Pattern != req.Pattern.String() || got.Spec != req.Cache.String():
		return fmt.Errorf("%s: answered %s on %s, asked %s on %s", serviceMenu[class].name,
			got.Pattern, got.Spec, req.Pattern.String(), req.Cache.String())
	}
	return nil
}

// checkModel checks a model response for the problem size asked and
// for its ratio being computed from its own columns.
func checkModel(req server.ModelRequest, got *server.ModelResponse) error {
	if got.N != req.N {
		return fmt.Errorf("model: answered n=%d, asked %d", got.N, req.N)
	}
	if got.Prime.CyclesPerResult <= 0 || got.Speedup != got.Direct.CyclesPerResult/got.Prime.CyclesPerResult {
		return fmt.Errorf("model n=%d: primeOverDirect %v ≠ %v / %v", req.N, got.Speedup,
			got.Direct.CyclesPerResult, got.Prime.CyclesPerResult)
	}
	return nil
}

// sameResult reports whether two answers to one job carry the same
// payload (everything but the transport's memoized flag).
func sameResult(a, b server.SweepResult) bool {
	switch {
	case a.Simulate != nil && b.Simulate != nil:
		x, y := *a.Simulate, *b.Simulate
		if (x.Victim == nil) != (y.Victim == nil) || (x.Victim != nil && *x.Victim != *y.Victim) {
			return false
		}
		x.Victim, y.Victim = nil, nil
		return x == y
	case a.Model != nil && b.Model != nil:
		return *a.Model == *b.Model
	}
	return false
}

// checkAnswer checks the answer to a job of menu class c: a simulate
// answer against the oracle's statistics for the class, a model answer
// for its own consistency.
func checkAnswer(c int, job server.SweepJob, res server.SweepResult, want map[int]cache.Stats) error {
	switch {
	case res.Error != "":
		return fmt.Errorf("%s: %s", serviceMenu[c].name, res.Error)
	case job.Simulate != nil && res.Simulate != nil:
		return checkSimulate(c, *job.Simulate, res.Simulate, want[c])
	case job.Model != nil && res.Model != nil:
		return checkModel(*job.Model, res.Model)
	}
	return fmt.Errorf("%s: answer of the wrong kind", serviceMenu[c].name)
}

// checkTable checks a table of setup-computed answers (the service-hot
// keys, the cluster-sweep jobs; class-major, so job i is of class
// i mod the menu's length) and returns the indices whose answer is
// wrong.
func checkTable(jobs []server.SweepJob, answers []server.SweepResult, want map[int]cache.Stats, v *verdict) map[int]bool {
	v.digest = classDigest(want)
	bad := map[int]bool{}
	for i, j := range jobs {
		if err := checkAnswer(i%len(serviceMenu), j, answers[i], want); err != nil {
			bad[i] = true
			v.problem("setup answer %d: %v", i, err)
		}
	}
	return bad
}

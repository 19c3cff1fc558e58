//go:build go1.24

package server

import (
	"runtime"
	"sync"
	"weak"
)

// simShelf holds at most one idle simulator per cache spec, weakly: an
// idle simulator is freed at the next collection unless a job takes it
// first, so the shelf never counts as live heap, and it pays off when
// jobs repeat a spec within one GC cycle.
type simShelf struct {
	mu   sync.Mutex
	sims map[string]weak.Pointer[shelved]
}

// watch has b's entry dropped once the collector frees b, so specs no
// later job repeats leave nothing behind. Probing every entry's Value
// on each checkin instead would keep them all alive through any mark
// phase the probe ran in.
func (sh *simShelf) watch(b *shelved) { runtime.AddCleanup(b, sh.drop, b.spec) }

// take removes and returns spec's idle simulator; nil when there is
// none or the collector has freed it.
func (sh *simShelf) take(spec string) *shelved {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	w := sh.sims[spec]
	delete(sh.sims, spec)
	return w.Value()
}

// checkin shelves b as its spec's idle simulator, replacing any other;
// the job must not touch b afterwards.
func (sh *simShelf) checkin(b *shelved) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sims == nil {
		sh.sims = make(map[string]weak.Pointer[shelved])
	}
	sh.sims[b.spec] = weak.Make(b)
}

// drop removes spec's entry if its simulator has been freed.
func (sh *simShelf) drop(spec string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sims[spec].Value() == nil {
		delete(sh.sims, spec)
	}
}

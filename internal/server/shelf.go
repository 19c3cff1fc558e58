package server

import "primecache/internal/cache"

// shelved is one simulator between jobs, boxed so a simShelf can point
// at it weakly, with the canonical spec it was built from.
type shelved struct {
	spec string
	sim  cache.Sim
}

// checkout lends a simulator for spec: the shelved one, flushed, when
// there is one, else a new one; reused reports which. Flush keeps every
// table's capacity, so a reused simulator skips the regrowth a new one
// pays for, and cache.TestFlushReuseEquivalence proves that it replays
// exactly as a fresh one. The job hands it back with checkin.
func (sh *simShelf) checkout(spec cache.Spec) (b *shelved, reused bool, err error) {
	key := spec.String()
	if b = sh.take(key); b != nil {
		b.sim.Flush()
		return b, true, nil
	}
	sim, err := spec.Build()
	if err != nil {
		return nil, false, err
	}
	b = &shelved{spec: key, sim: sim}
	sh.watch(b)
	return b, false, nil
}

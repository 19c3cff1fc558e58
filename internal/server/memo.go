package server

import (
	"container/list"
	"sync"

	"primecache/internal/obs"
)

// Memo is a bounded LRU memoization cache from canonical request keys to
// computed results. Sweeps routinely repeat configurations (a grid with a
// fixed axis, retried batches), so identical work is computed once and
// served from here afterwards. Safe for concurrent use.
//
// Get/Put do not deduplicate concurrent computations of the same key
// (both compute, last Put wins) — the Server single-flights identical
// in-flight jobs on top of this (see computeJob), so the memo itself
// stays a plain cache.
type Memo struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
}

type memoEntry struct {
	key   string
	value any
}

// NewMemo returns an LRU memo holding at most capacity entries; a
// non-positive capacity disables memoization (every Get misses, Put is a
// no-op).
func NewMemo(capacity int) *Memo {
	return &Memo{cap: capacity, entries: map[string]*list.Element{}, order: list.New()}
}

// Enabled reports whether the memo stores anything (capacity > 0).
func (m *Memo) Enabled() bool { return m.cap > 0 }

// Get returns the memoized value for key, if any.
func (m *Memo) Get(key string) (any, bool) {
	if m.cap <= 0 {
		m.misses.Inc()
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.misses.Inc()
		return nil, false
	}
	m.order.MoveToFront(el)
	m.hits.Inc()
	return el.Value.(*memoEntry).value, true
}

// Contains reports whether key is memoized, without counting a lookup
// or refreshing the entry's recency.
func (m *Memo) Contains(key string) bool {
	if m.cap <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// Put stores value under key, evicting the least-recently-used entry when
// full.
func (m *Memo) Put(key string, value any) {
	if m.cap <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoEntry).value = value
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memoEntry{key: key, value: value})
	for m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
		m.evictions.Inc()
	}
}

// Len returns the current entry count.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

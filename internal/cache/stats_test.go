package cache_test

import (
	"reflect"
	"testing"

	"primecache/internal/cache"
)

// TestStatsAddSubEveryField checks that Add and Sub combine every Stats
// field, so a counter added later cannot read 0 in a replay's deltas or
// be left out of a folded pass.
func TestStatsAddSubEveryField(t *testing.T) {
	var a, b cache.Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(100 + 3*i))
		bv.Field(i).SetUint(uint64(i))
	}
	sum := a
	sum.Add(b)
	s, d := reflect.ValueOf(sum), reflect.ValueOf(a.Sub(b))
	for i := 0; i < d.NumField(); i++ {
		name := d.Type().Field(i).Name
		if got, want := s.Field(i).Uint(), uint64(100+4*i); got != want {
			t.Errorf("Add %s = %d, want %d", name, got, want)
		}
		if got, want := d.Field(i).Uint(), uint64(100+2*i); got != want {
			t.Errorf("Sub %s = %d, want %d", name, got, want)
		}
	}
}

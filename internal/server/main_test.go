package server

import (
	"testing"

	"primecache/internal/sim/leak"
)

// TestMain asserts the whole suite quiesces: no sweep fan-out, drain
// goroutine, or fault timer may outlive the tests that started it.
func TestMain(m *testing.M) { leak.Main(m) }

//go:build !go1.24

package server

// simShelf holds nothing where the toolchain lacks the weak package
// (before Go 1.24): every checkout builds.
type simShelf struct{}

func (*simShelf) watch(*shelved)       {}
func (*simShelf) take(string) *shelved { return nil }
func (*simShelf) checkin(*shelved)     {}

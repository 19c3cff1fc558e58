package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write lays out one file under root, creating parents.
func write(t *testing.T, root, name, content string) {
	t.Helper()
	path := filepath.Join(root, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reporter collects check problems as rendered strings.
func reporter(problems *[]string) func(string, ...any) {
	return func(format string, args ...any) {
		*problems = append(*problems, fmt.Sprintf(format, args...))
	}
}

func TestRouteCoverage(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/server/server.go", `package server

import "net/http"

type Server struct{ mux *http.ServeMux }

func (s *Server) routes() {
	s.mux.Handle("POST /v1/documented", nil)
	s.mux.Handle("GET /v1/undocumented", nil)
}
`)
	write(t, root, "internal/cluster/coordinator.go", `package cluster

import "net/http"

type Coordinator struct{ mux *http.ServeMux }

func (c *Coordinator) routes() {
	c.mux.HandleFunc("DELETE /v1/admin/things", nil)
}

func notARoute(other *http.ServeMux) {
	// Receiver is not named mux: must be ignored.
	other.Handle("GET /not-a-route", nil)
}
`)
	write(t, root, "API.md", "### POST /v1/documented\n\n### DELETE /v1/admin/things\n")

	var problems []string
	checkRoutes(root, reporter(&problems))
	if len(problems) != 1 || !strings.Contains(problems[0], "GET /v1/undocumented") {
		t.Fatalf("problems = %v, want exactly the undocumented route", problems)
	}
}

func TestLinkResolution(t *testing.T) {
	root := t.TempDir()
	write(t, root, "TUTORIAL.md", "exists")
	write(t, root, "README.md", strings.Join([]string{
		"[good](TUTORIAL.md)",
		"[good anchor](TUTORIAL.md#section)",
		"[external](https://example.com/x.md)",
		"[mail](mailto:a@b.c)",
		"[fragment](#local-anchor)",
		"[broken](MISSING.md)",
	}, "\n"))

	var problems []string
	checkLinks(root, reporter(&problems))
	if len(problems) != 1 || !strings.Contains(problems[0], "MISSING.md") {
		t.Fatalf("problems = %v, want exactly the broken link", problems)
	}
}

func TestDocComments(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/cluster/x.go", `package cluster

// Documented has a doc comment.
type Documented struct{}

type Undocumented struct{}

// Fine is documented.
func Fine() {}

func Bare() {}

// Grouped constants share one block comment.
const (
	GroupedA = 1
	GroupedB = 2
)

const LoneConst = 3

// helper is unexported; its exported methods are exempt.
type helper struct{}

func (helper) Close() error { return nil }
`)
	for _, dir := range commentDirs {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	var problems []string
	checkDocComments(root, reporter(&problems))
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"Undocumented", "Bare", "LoneConst"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing-doc report does not flag %s:\n%s", want, joined)
		}
	}
	for _, mustNot := range []string{"Documented ", "Fine", "GroupedA", "GroupedB", "Close"} {
		if strings.Contains(joined, mustNot) {
			t.Errorf("falsely flagged %s:\n%s", strings.TrimSpace(mustNot), joined)
		}
	}
	if len(problems) != 3 {
		t.Errorf("problems = %d, want 3:\n%s", len(problems), joined)
	}
}

// TestRepoIsClean runs all three checks against the actual repository —
// the same self-test obscheck performs, so the lint can never be
// shipped in a state where it fails its own codebase.
func TestRepoIsClean(t *testing.T) {
	root := "../.."
	var problems []string
	rep := reporter(&problems)
	checkRoutes(root, rep)
	checkLinks(root, rep)
	checkDocComments(root, rep)
	if len(problems) > 0 {
		t.Fatalf("doccheck fails against the repo:\n%s", strings.Join(problems, "\n"))
	}
}

package server

import (
	"bytes"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// flushCounter is a ResponseRecorder that counts flushes and records
// how much of the body each flush sent.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushCounter) Flush() { f.flushedAt = append(f.flushedAt, f.Body.Len()) }

func readySlots(lines ...string) []chan []byte {
	slots := make([]chan []byte, len(lines))
	for i, l := range lines {
		slots[i] = make(chan []byte, 1)
		if l != "" {
			slots[i] <- []byte(l)
		}
	}
	return slots
}

const (
	okLine0  = `{"index":0,"model":{"banks":64},"memoized":true}`
	okLine1  = `{"index":1,"simulate":{"cache":"x"},"memoized":false}`
	errLine2 = `{"index":2,"error":"busy","errorCode":"overloaded","memoized":false}`
)

// TestWriteSweepRoundTrip writes three results and reads them back:
// framing, raw bytes, indexes, error codes, and the index rewrite.
func TestWriteSweepRoundTrip(t *testing.T) {
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	slots := readySlots(okLine0, okLine1, errLine2)
	WriteSweep(rec, slots, func(i int) []byte { return <-slots[i] })
	want := "{\"results\":[\n" + okLine0 + "\n,\n" + okLine1 + "\n,\n" + errLine2 + "\n]}\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("body:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	// Every result was ready: one flush, at the end.
	if len(rec.flushedAt) != 1 || rec.flushedAt[0] != len(want) {
		t.Errorf("flushes at %v, want one at %d", rec.flushedAt, len(want))
	}

	sr := NewSweepReader(strings.NewReader(want))
	for i, w := range []struct {
		raw  string
		code ErrorCode
	}{{okLine0, ""}, {okLine1, ""}, {errLine2, CodeOverloaded}} {
		l, err := sr.Next()
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if string(l.Raw) != w.raw || l.Index != i || l.ErrorCode != w.code {
			t.Fatalf("result %d = %q index %d code %q", i, l.Raw, l.Index, l.ErrorCode)
		}
		if got, want := string(l.WithIndex(417)), `{"index":417`+w.raw[len(`{"index":0`):]; got != want {
			t.Errorf("WithIndex = %s, want %s", got, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after the trailer: %v, want io.EOF", err)
	}
}

// TestWriteSweepFlushesOnlyWhenWaiting: the writer flushes before it
// blocks on a result that is not ready, and not between ready ones.
func TestWriteSweepFlushesOnlyWhenWaiting(t *testing.T) {
	rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	slots := readySlots(okLine0, "", "")
	var waited []int
	WriteSweep(rec, slots, func(i int) []byte {
		waited = append(waited, i)
		if i == 1 {
			slots[2] <- []byte(strings.Replace(okLine1, `"index":1`, `"index":2`, 1))
			return []byte(okLine1)
		}
		return <-slots[i]
	})
	head := len("{\"results\":[\n" + okLine0 + "\n")
	if len(waited) != 1 || waited[0] != 1 {
		t.Errorf("waited for %v, want only result 1", waited)
	}
	if len(rec.flushedAt) != 2 || rec.flushedAt[0] != head || rec.flushedAt[1] != rec.Body.Len() {
		t.Errorf("flushes at %v, want at %d (before waiting) and %d (end)", rec.flushedAt, head, rec.Body.Len())
	}
}

// TestSweepReaderRejectsBrokenFraming: every way a body can break the
// framing is an error, and the reader returns no result with it.
func TestSweepReaderRejectsBrokenFraming(t *testing.T) {
	const head = "{\"results\":[\n"
	for _, tc := range []struct {
		name   string
		body   string
		before int // whole results read before the break
	}{
		{"empty", "", 0},
		{"bad header", "{\"results\": [\n" + okLine0 + "\n]}\n", 0},
		{"no trailer", head + okLine0 + "\n", 1},
		{"cut mid-line", head + okLine0[:20], 0},
		{"missing separator", head + okLine0 + "\n" + okLine1 + "\n]}\n", 1},
		{"separator then trailer", head + okLine0 + "\n,\n]}\n", 1},
		{"index out of order", head + okLine1 + "\n]}\n", 0},
		{"index not a number", head + `{"index":"0","model":{},"memoized":false}` + "\n]}\n", 0},
		{"no memoized field", head + `{"index":0,"model":{}}` + "\n]}\n", 0},
		{"line cut, brace put back", head + okLine1[:30] + "}\n]}\n", 0},
		{"unframed line", head + "garbage\n]}\n", 0},
		{"error line not JSON", head + `{"index":0,"error":"x,"memoized":false}` + "\n]}\n", 0},
		{"data after trailer", head + okLine0 + "\n]}\n]}\n", 1},
	} {
		sr := NewSweepReader(strings.NewReader(tc.body))
		read := 0
		var err error
		for ; ; read++ {
			if _, err = sr.Next(); err != nil {
				break
			}
		}
		if read != tc.before {
			t.Errorf("%s: read %d results before the break, want %d", tc.name, read, tc.before)
		}
		if !errors.Is(err, errSweepFraming) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %v is neither a framing error nor an early end", tc.name, err)
		}
	}
}

// TestSweepReaderLongLine reads a result longer than the reader's
// buffer.
func TestSweepReaderLongLine(t *testing.T) {
	long := `{"index":0,"simulate":{"cache":"` + strings.Repeat("x", 100<<10) + `"},"memoized":false}`
	body := "{\"results\":[\n" + long + "\n,\n" + okLine1 + "\n]}\n"
	sr := NewSweepReader(bytes.NewReader([]byte(body)))
	l, err := sr.Next()
	if err != nil || string(l.Raw) != long {
		t.Fatalf("long result: %d bytes, %v", len(l.Raw), err)
	}
	if l, err = sr.Next(); err != nil || string(l.Raw) != okLine1 {
		t.Fatalf("result after the long one: %q, %v", l.Raw, err)
	}
}

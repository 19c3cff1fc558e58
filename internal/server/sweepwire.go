package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The /v1/sweep body is line-framed, so results can stream as they
// complete and a coordinator can relay a backend's results without
// decoding them:
//
//	{"results":[
//	{"index":0,...}
//	,
//	{"index":1,...}
//	]}
//
// A header line, one compact SweepResult per line with a "," line
// between results, and a trailer line; every line ends in '\n', which
// compact JSON never contains. WriteSweep writes it on a node and on
// the coordinator alike; SweepReader reads it back.
const (
	sweepHeader  = "{\"results\":[\n"
	sweepSep     = ",\n"
	sweepTrailer = "]}\n"
	indexPrefix  = `{"index":`
)

// WriteSweep streams a /v1/sweep response body. slots[i] carries result
// i's compact JSON line (no newline), and wait(i) blocks until that
// line is there. Lines go out in input order. The body is flushed only
// when the next line is not ready yet, and once at the end, so results
// that are ready together share a network write while a slow job never
// holds back the ones before it. Lines already in their slots when
// WriteSweep starts, such as a node's memoized results, go out without
// a flush between them: a sweep whose lines are all there is flushed
// once, at the end.
func WriteSweep(w http.ResponseWriter, slots []chan []byte, wait func(i int) []byte) {
	w.Header().Set("Content-Type", "application/json")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if _, err := io.WriteString(w, sweepHeader); err != nil {
		return
	}
	for i := range slots {
		var line []byte
		select {
		case line = <-slots[i]:
		default:
			flush()
			line = wait(i)
		}
		if i > 0 {
			if _, err := io.WriteString(w, sweepSep); err != nil {
				return
			}
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return
		}
	}
	if _, err := io.WriteString(w, sweepTrailer); err != nil {
		return
	}
	flush()
}

// SweepResultLine encodes res as its /v1/sweep line. A result that
// cannot be encoded (a non-finite float the validators missed) becomes
// an internal error result for the same index, so the body stays well
// formed.
func SweepResultLine(res SweepResult) []byte {
	line, err := json.Marshal(res)
	if err != nil {
		line, _ = json.Marshal(SweepResult{Index: res.Index, ErrorCode: CodeInternal,
			Error: fmt.Sprintf("server: encoding result: %v", err)})
	}
	return line
}

// SweepLine is one result as read from a /v1/sweep body.
type SweepLine struct {
	// Raw is the result's compact JSON, without the newline. It is valid
	// only until the next call to SweepReader.Next.
	Raw []byte
	// Index is the result's "index" field.
	Index int
	// ErrorCode is the result's "errorCode" field; empty for a result
	// carrying a simulate or model answer.
	ErrorCode ErrorCode
	// rest is the offset in Raw of the ',' that follows the index.
	rest int
}

// WithIndex returns a copy of the line whose index field is idx and
// whose other bytes are unchanged.
func (l SweepLine) WithIndex(idx int) []byte {
	tail := l.Raw[l.rest:]
	out := make([]byte, 0, len(indexPrefix)+20+len(tail))
	out = append(out, indexPrefix...)
	out = strconv.AppendInt(out, int64(idx), 10)
	return append(out, tail...)
}

// errSweepFraming marks a /v1/sweep body that does not follow the
// framing WriteSweep produces.
var errSweepFraming = errors.New("server: malformed sweep body")

// SweepReader reads a /v1/sweep body result by result. Only the index
// and, for results that carry no answer, the error code are parsed: a
// successful result's answer is never decoded.
type SweepReader struct {
	br     *bufio.Reader
	long   []byte // a line longer than br's buffer
	begun  bool   // header read
	done   bool   // trailer read
	parsed int    // results returned so far
}

// NewSweepReader returns a reader over a /v1/sweep body.
func NewSweepReader(r io.Reader) *SweepReader {
	return &SweepReader{br: bufio.NewReader(r)}
}

// Next returns the next result. It returns io.EOF once the trailer has
// been read and the body has ended. A body that breaks the framing,
// including one whose result indexes do not count up from 0, gives a
// "malformed sweep body" error; one that ends early gives
// io.ErrUnexpectedEOF or the transport's error. No result is returned
// together with an error.
func (sr *SweepReader) Next() (SweepLine, error) {
	if sr.done {
		return SweepLine{}, io.EOF
	}
	line, err := sr.readLine()
	if err != nil {
		return SweepLine{}, err
	}
	if !sr.begun {
		if string(line) != sweepHeader {
			return SweepLine{}, sr.framing("header", line)
		}
		sr.begun = true
		if line, err = sr.readLine(); err != nil {
			return SweepLine{}, err
		}
	}
	if string(line) == sweepTrailer {
		sr.done = true
		switch _, err := sr.br.ReadByte(); {
		case err == nil:
			return SweepLine{}, fmt.Errorf("%w: data after the trailer", errSweepFraming)
		case err != io.EOF:
			return SweepLine{}, err
		}
		return SweepLine{}, io.EOF
	}
	if sr.parsed > 0 {
		if string(line) != sweepSep {
			return SweepLine{}, sr.framing("separator", line)
		}
		if line, err = sr.readLine(); err != nil {
			return SweepLine{}, err
		}
	}
	l, ok := parseSweepLine(line[:len(line)-1])
	if !ok || l.Index != sr.parsed {
		return SweepLine{}, sr.framing(fmt.Sprintf("result %d", sr.parsed), line)
	}
	sr.parsed++
	return l, nil
}

// readLine returns the next '\n'-terminated line, newline included.
func (sr *SweepReader) readLine() ([]byte, error) {
	line, err := sr.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		sr.long = append(sr.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = sr.br.ReadSlice('\n')
			sr.long = append(sr.long, line...)
		}
		line = sr.long
	}
	if errors.Is(err, io.EOF) {
		return nil, io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	return line, nil
}

func (sr *SweepReader) framing(want string, got []byte) error {
	if len(got) > 64 {
		got = got[:64]
	}
	return fmt.Errorf("%w: want %s, got %q", errSweepFraming, want, got)
}

// parseSweepLine checks that raw is framed as one result line and
// reads its index and, when the result carries no simulate or model
// answer, its error code. Every SweepResult line starts with its index
// field and ends with its memoized field, so a line cut short is
// rejected without scanning the answer between them.
func parseSweepLine(raw []byte) (SweepLine, bool) {
	if !bytes.HasPrefix(raw, []byte(indexPrefix)) ||
		!(bytes.HasSuffix(raw, []byte(`,"memoized":false}`)) || bytes.HasSuffix(raw, []byte(`,"memoized":true}`))) {
		return SweepLine{}, false
	}
	l := SweepLine{Raw: raw, rest: len(indexPrefix)}
	for ; '0' <= raw[l.rest] && raw[l.rest] <= '9'; l.rest++ {
		if l.rest-len(indexPrefix) >= 9 {
			return SweepLine{}, false
		}
		l.Index = 10*l.Index + int(raw[l.rest]-'0')
	}
	if l.rest == len(indexPrefix) || raw[l.rest] != ',' {
		return SweepLine{}, false
	}
	tail := raw[l.rest:]
	if bytes.HasPrefix(tail, []byte(`,"simulate":`)) || bytes.HasPrefix(tail, []byte(`,"model":`)) {
		return l, true
	}
	var res struct {
		ErrorCode ErrorCode `json:"errorCode"`
	}
	if json.Unmarshal(raw, &res) != nil {
		return SweepLine{}, false
	}
	l.ErrorCode = res.ErrorCode
	return l, true
}

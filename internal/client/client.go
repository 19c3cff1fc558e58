// Package client is the typed Go client for the vcached HTTP API. It
// speaks the unified error envelope, propagates contexts into every
// request, and retries transient failures (overloaded, shutting_down,
// connection errors) with exponential backoff, full jitter, and respect
// for the server's Retry-After hint — so callers see either a result, a
// typed *Error, or their own context's error, never a raw wire failure
// that a later attempt would have absorbed.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// Client talks to one vcached instance.
type Client struct {
	base    string
	hc      *http.Client
	retries int           // extra attempts after the first
	backoff time.Duration // first retry delay, doubled per attempt
	maxWait time.Duration // ceiling on any single delay
	etags   *etagCache    // conditional-request cache; nil when disabled
	token   string        // admin bearer token; empty sends no Authorization

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithRetries sets how many times a transient failure is retried after
// the initial attempt (default 3). 0 disables retries.
func WithRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// WithBackoff sets the first retry delay and the per-delay ceiling
// (defaults 50ms and 5s). The delay doubles each attempt, is raised to
// the server's Retry-After hint when one is present, and is then
// jittered to half-to-full of its value.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.maxWait = base, max }
}

// WithSeed makes the jitter deterministic, for tests.
func WithSeed(seed int64) Option {
	return WithRand(rand.NewSource(seed))
}

// WithRand injects the randomness source behind the retry jitter, so
// tests can control (or record) every delay the client picks.
func WithRand(src rand.Source) Option {
	return func(c *Client) { c.rng = rand.New(src) }
}

// WithHTTPClient substitutes the underlying HTTP client (defaults to a
// dedicated client with a 2-minute overall timeout).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithETagCache resizes the conditional-request cache: the client
// remembers the last n (ETag, result) pairs per canonical job key and
// sends If-None-Match automatically, serving 304s from the stored copy
// with NotModified set (default 256; <= 0 disables conditionals).
func WithETagCache(n int) Option {
	return func(c *Client) { c.etags = newEtagCache(n) }
}

// WithAdminToken sets the bearer token sent as an Authorization header
// on every request, required by the coordinator's token-gated
// /v1/admin endpoints. Non-admin endpoints ignore it.
func WithAdminToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// New returns a client for the vcached instance at baseURL
// (e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 2 * time.Minute},
		retries: 3,
		backoff: 50 * time.Millisecond,
		maxWait: 5 * time.Second,
		etags:   newEtagCache(256),
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c
}

// Error is a failed API call, carrying the server's machine code and
// Retry-After hint alongside the HTTP status.
type Error struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the machine error code from the unified envelope.
	Code server.ErrorCode
	// Message is the human-readable error message.
	Message string
	// RetryAfter is the server's backoff hint, zero when absent.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("vcached: %s (%d): %s", e.Code, e.Status, e.Message)
}

// Temporary reports whether a later identical request could succeed, the
// retry predicate: overload, shutdown, and an unreachable upstream pass
// (another replica, or this one once drained or healed); validation and
// size errors never will.
func (e *Error) Temporary() bool {
	return e.Code == server.CodeOverloaded || e.Code == server.CodeShuttingDown || e.Code == server.CodeUnavailable
}

// SimulateResult is a simulate response plus the transport-level
// memoization flag. ETag carries the response's strong validator;
// NotModified is true when this call was answered 304 from the
// client's conditional cache (the payload is the stored copy, and
// Memoized reflects the server's verdict from the 304's header).
type SimulateResult struct {
	server.SimulateResponse
	Memoized    bool   `json:"memoized"`
	ETag        string `json:"-"`
	NotModified bool   `json:"-"`
}

// ModelResult is a model response plus the memoization flag; see
// SimulateResult for ETag/NotModified semantics.
type ModelResult struct {
	server.ModelResponse
	Memoized    bool   `json:"memoized"`
	ETag        string `json:"-"`
	NotModified bool   `json:"-"`
}

// Simulate runs one cache simulation.
func (c *Client) Simulate(ctx context.Context, req server.SimulateRequest) (*SimulateResult, error) {
	key := req.Key()
	inm, cached, _ := c.etags.lookup(key)
	var out SimulateResult
	cond, err := c.do(ctx, http.MethodPost, "/v1/simulate", req, &out, inm)
	if err != nil {
		return nil, err
	}
	if cond.notModified {
		if prev, ok := cached.(SimulateResult); ok {
			out = prev
			out.NotModified = true
			out.Memoized = cond.memoized
			return &out, nil
		}
		// The entry was evicted while the request was in flight;
		// refetch unconditionally.
		if cond, err = c.do(ctx, http.MethodPost, "/v1/simulate", req, &out, ""); err != nil {
			return nil, err
		}
	}
	out.ETag = cond.etag
	c.etags.store(key, cond.etag, out)
	return &out, nil
}

// Model evaluates the analytic models at one operating point.
func (c *Client) Model(ctx context.Context, req server.ModelRequest) (*ModelResult, error) {
	key := req.Key()
	inm, cached, _ := c.etags.lookup(key)
	var out ModelResult
	cond, err := c.do(ctx, http.MethodPost, "/v1/model", req, &out, inm)
	if err != nil {
		return nil, err
	}
	if cond.notModified {
		if prev, ok := cached.(ModelResult); ok {
			out = prev
			out.NotModified = true
			out.Memoized = cond.memoized
			return &out, nil
		}
		if cond, err = c.do(ctx, http.MethodPost, "/v1/model", req, &out, ""); err != nil {
			return nil, err
		}
	}
	out.ETag = cond.etag
	c.etags.store(key, cond.etag, out)
	return &out, nil
}

// Sweep runs a batch of jobs, returning per-job results in input order.
// Per-job failures arrive inside SweepResult.Error/ErrorCode, not as a
// call-level error.
func (c *Client) Sweep(ctx context.Context, req server.SweepRequest) ([]server.SweepResult, error) {
	var out struct {
		Results []server.SweepResult `json:"results"`
	}
	if _, err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &out, ""); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// SweepRaw runs a batch and hands each result to fn as its line is
// read off the response, without decoding it (see server.SweepReader):
// the body is streamed, never buffered whole. A body that breaks the
// /v1/sweep framing fails the call. An error from fn stops the read and
// is returned. The call is retried like any other only until the first
// result has been handed to fn; after that a failure is returned as is,
// since a retry would hand those results over again.
func (c *Client) SweepRaw(ctx context.Context, req server.SweepRequest, fn func(server.SweepLine) error) error {
	_, err := c.do(ctx, http.MethodPost, "/v1/sweep", req, streamBody(func(body io.Reader) error {
		sr := server.NewSweepReader(body)
		delivered := false
		for {
			line, err := sr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				err = fmt.Errorf("client: reading /v1/sweep response: %w", err)
				if delivered {
					return afterDelivery{err}
				}
				return err
			}
			delivered = true
			if err := fn(line); err != nil {
				return afterDelivery{err}
			}
		}
	}), "")
	return err
}

// Relay posts req to path (/v1/simulate or /v1/model), sending
// ifNoneMatch when not empty, and returns the answer's bytes and ETag;
// a 304 returns a nil body and the memoized verdict from its header. A
// 2xx body that is not one JSON value fails the call.
func (c *Client) Relay(ctx context.Context, path string, req any, ifNoneMatch string) (body []byte, etag string, memoized bool, err error) {
	cd, err := c.do(ctx, http.MethodPost, path, req, streamBody(func(r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return fmt.Errorf("client: reading %s response: %w", path, err)
		}
		if !json.Valid(data) {
			return fmt.Errorf("client: %s response is not one JSON value", path)
		}
		body = data
		return nil
	}), ifNoneMatch)
	if err != nil {
		return nil, "", false, err
	}
	return body, cd.etag, cd.memoized, nil
}

// streamBody, passed to do as its out value, consumes a 2xx response
// body as a stream instead of having it buffered and decoded.
type streamBody func(io.Reader) error

// afterDelivery marks a failure of a streamed call that had already
// handed results to its caller, which do must not retry.
type afterDelivery struct{ error }

func (e afterDelivery) Unwrap() error { return e.error }

// Stats fetches the server's counters (the full tier-specific body;
// dashboards that only need the uniform blocks should use StatsV2).
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	var out server.StatsResponse
	if _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out, ""); err != nil {
		return nil, err
	}
	return &out, nil
}

// StatsV2 fetches the uniform schema-2 stats view. Against a schema-1
// server (one predating the versioned schema) the shared blocks decode
// identically — the memo/admission/partial shapes did not change — so
// the shim only has to stamp the schema it actually got and leave the
// persist block zero-valued.
func (c *Client) StatsV2(ctx context.Context) (*server.StatsV2, error) {
	resp, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	v2 := resp.V2()
	if v2.Schema == 0 {
		v2.Schema = 1
	}
	return &v2, nil
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &struct{}{}, "")
	return err
}

// Close releases the client's idle keep-alive connections. Long-lived
// owners (the cluster coordinator, test suites with goroutine-leak
// checking) call it when done with the backend; the client remains
// usable afterwards, it just has to re-dial.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Readyz probes readiness with a single round trip — no retries, the
// whole point is to learn the instance's state right now. A decoded
// body is returned whenever the server produced one, so callers can
// distinguish "alive but draining" (resp.Draining, alongside a non-nil
// error) from "gone" (nil response).
func (c *Client) Readyz(ctx context.Context) (*server.ReadyzResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/readyz", nil)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET /v1/readyz: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("client: reading readyz response: %w", err)
	}
	var rz server.ReadyzResponse
	if jsonErr := json.Unmarshal(data, &rz); jsonErr != nil {
		if resp.StatusCode == http.StatusOK {
			return nil, fmt.Errorf("client: decoding readyz response: %w", jsonErr)
		}
		return nil, decodeError(resp, data)
	}
	if resp.StatusCode != http.StatusOK {
		return &rz, &Error{Status: resp.StatusCode, Code: server.CodeShuttingDown, Message: rz.Status}
	}
	return &rz, nil
}

// cond carries the conditional-request outcome of one call: the
// response's ETag, whether the server answered 304, and the memoized
// verdict from the 304's X-Vcached-Memoized header.
type cond struct {
	etag        string
	notModified bool
	memoized    bool
}

// do issues one logical API call: marshal, attempt, and retry transient
// failures until the retry budget or ctx runs out. The last error is
// returned when the budget is exhausted. A non-empty ifNoneMatch rides
// every attempt as an If-None-Match header.
func (c *Client) do(ctx context.Context, method, path string, in, out any, ifNoneMatch string) (cond, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return cond{}, fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		var cd cond
		cd, lastErr = c.once(ctx, method, path, body, out, ifNoneMatch)
		if lastErr == nil || ctx.Err() != nil || attempt >= c.retries || errors.As(lastErr, new(afterDelivery)) {
			return cd, lastErr
		}
		var ae *Error
		isAPI := asClientError(lastErr, &ae)
		if isAPI && !ae.Temporary() {
			return cd, lastErr
		}
		delay := c.backoff << attempt
		if isAPI && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		if delay > c.maxWait {
			delay = c.maxWait
		}
		// Additive jitter in [0, delay/2], so synchronized clients that
		// were all shed by one overload spike do not retry in lockstep.
		// The hint is a floor: the server asked for at least that long.
		c.mu.Lock()
		delay += time.Duration(c.rng.Int63n(int64(delay/2) + 1))
		c.mu.Unlock()
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return cond{}, ctx.Err()
		case <-t.C:
		}
	}
}

// asClientError unwraps err into *Error if it is one.
func asClientError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// once performs a single HTTP round trip.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, ifNoneMatch string) (cond, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return cond{}, fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	// Propagate the caller's trace, if any, so the backend's spans
	// stitch under it.
	obs.Inject(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return cond{}, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	respBody := io.LimitReader(resp.Body, 64<<20)
	cd := cond{etag: resp.Header.Get("ETag")}
	if read, ok := out.(streamBody); ok && resp.StatusCode/100 == 2 {
		return cd, read(respBody)
	}
	data, err := io.ReadAll(respBody)
	if err != nil {
		return cd, fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode == http.StatusNotModified {
		// Bodiless by definition; the stored entity is current. The
		// memoized verdict rides a header since there is no body.
		cd.notModified = true
		cd.memoized = resp.Header.Get(server.MemoizedHeader) == "true"
		return cd, nil
	}
	if resp.StatusCode/100 != 2 {
		return cd, decodeError(resp, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return cd, fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return cd, nil
}

// decodeError maps a non-2xx response to *Error, preferring the unified
// envelope and falling back to the raw body for non-vcached middleboxes.
func decodeError(resp *http.Response, data []byte) error {
	e := &Error{Status: resp.StatusCode}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Error != nil {
		e.Code = env.Error.Code
		e.Message = env.Error.Message
		e.RetryAfter = time.Duration(env.Error.RetryAfterMs) * time.Millisecond
	} else {
		e.Code = server.CodeInternal
		e.Message = strings.TrimSpace(string(data))
	}
	if e.RetryAfter == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

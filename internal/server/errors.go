package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// ErrorCode is the machine-readable classification every error response
// carries. Clients dispatch on the code, not on the HTTP status or the
// human-readable message: the code set is the API contract.
type ErrorCode string

const (
	// CodeInvalidRequest: the request is malformed or fails validation;
	// retrying the same request cannot succeed.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeJobTooLarge: the request is well-formed but exceeds the
	// server's configured limits (references per job, sweep batch size,
	// body bytes); retrying cannot succeed, shrinking the job can.
	CodeJobTooLarge ErrorCode = "job_too_large"
	// CodeOverloaded: the admission queue is full; retry after the
	// suggested delay.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeTimeout: the per-request compute deadline expired.
	CodeTimeout ErrorCode = "timeout"
	// CodeCancelled: the client went away before the job finished.
	CodeCancelled ErrorCode = "cancelled"
	// CodeShuttingDown: the server is draining; retry against another
	// replica or after the restart.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeUnavailable: the coordinator could not reach any backend
	// replica for the job (all down, draining, or shedding); retry once
	// the cluster heals.
	CodeUnavailable ErrorCode = "upstream_unavailable"
	// CodeNotFound: the requested resource does not exist on this server
	// (e.g. /v1/debug/traces on a server built without a tracer, or an
	// unknown trace id).
	CodeNotFound ErrorCode = "not_found"
	// CodeUnauthorized: the request needs a valid admin bearer token and
	// did not present one; retrying without new credentials cannot
	// succeed.
	CodeUnauthorized ErrorCode = "unauthorized"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// statusCancelled is the nginx-convention status for "client closed
// request"; there is no standard code.
const statusCancelled = 499

// HTTPStatus maps the code to its response status.
func (c ErrorCode) HTTPStatus() int {
	switch c {
	case CodeInvalidRequest:
		return http.StatusBadRequest
	case CodeJobTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeCancelled:
		return statusCancelled
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	case CodeUnavailable:
		return http.StatusBadGateway
	case CodeNotFound:
		return http.StatusNotFound
	case CodeUnauthorized:
		return http.StatusUnauthorized
	default:
		return http.StatusInternalServerError
	}
}

// APIError is the unified error body every endpoint returns:
//
//	{"error":{"code":"overloaded","message":"...","retry_after_ms":1200}}
//
// RetryAfterMs, when positive, is also mirrored into a Retry-After
// header (rounded up to whole seconds).
type APIError struct {
	Code         ErrorCode `json:"code"`
	Message      string    `json:"message"`
	RetryAfterMs int64     `json:"retry_after_ms,omitempty"`
}

// Error renders the envelope as "code: message".
func (e *APIError) Error() string { return string(e.Code) + ": " + e.Message }

// Errf builds an APIError with a formatted message.
func Errf(code ErrorCode, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: strings.TrimSpace(fmt.Sprintf(format, args...))}
}

// ErrorEnvelope is the wire form of an error response.
type ErrorEnvelope struct {
	Error *APIError `json:"error"`
}

// asAPIError maps any error to the envelope body. Typed errors pass
// through; context and lifecycle errors get their canonical codes;
// anything else is an internal error.
func asAPIError(err error) *APIError {
	var ae *APIError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded):
		return Errf(CodeTimeout, "request timed out")
	case errors.Is(err, context.Canceled):
		return Errf(CodeCancelled, "request cancelled")
	case errors.Is(err, ErrPoolClosed):
		return Errf(CodeShuttingDown, "server shutting down")
	default:
		return Errf(CodeInternal, "%v", err)
	}
}

// WriteError renders err as the unified envelope, setting Retry-After
// when the error carries a hint.
func WriteError(w http.ResponseWriter, err error) {
	ae := asAPIError(err)
	if ae.RetryAfterMs > 0 {
		secs := (ae.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteJSON(w, ae.Code.HTTPStatus(), ErrorEnvelope{Error: ae})
}

// Package httperr is the repo's one HTTP boundary: every /d/*, /m/* and
// /g/* endpoint is one Handle registration, which answers success as
// JSON and failure as one error envelope:
//
//	{"error": {"code": "deadline", "message": "...", "degraded": false}}
//
// Codes are stable lowercase_snake identifiers, not HTTP reasons: the
// status says what the transport should do (retry, back off, give up);
// the code says what actually happened, so a client can tell "the store
// is degraded" from "your request is malformed" without parsing prose.
// Each code has one status, in one table. An error names its code where
// it is made, as an *Error that errors.As finds in its chain: Errorf
// makes one around its text, and a whole *Error (a shed, a redirect)
// answers as itself. An error that names none is internal, except the
// two context errors.
package httperr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Stable error codes.
const (
	CodeBadRequest    = "bad_request"    // malformed or unresolvable request
	CodeNotFound      = "not_found"      // named profile/job/dataset does not exist
	CodeDeadline      = "deadline"       // the request's deadline elapsed mid-work
	CodeCanceled      = "canceled"       // the caller went away
	CodeUnavailable   = "unavailable"    // the store (or a dependency) is down
	CodeNotServing    = "not_serving"    // region moved or fenced; re-route and retry
	CodeNotLeader     = "not_leader"     // standby master; message carries the leader hint
	CodeStaleMaster   = "stale_master"   // deposed master's epoch rejected by fencing
	CodeUnknownServer = "unknown_server" // heartbeat from a server absent from the catalog; re-Join
	CodeRateLimited   = "rate_limited"   // tenant over its token-bucket quota
	CodeOverCapacity  = "over_capacity"  // concurrency ceiling hit (tenant or global)
	CodeShedDegraded  = "shed_degraded"  // load-shed: store degraded, tenant priority too low
	CodeInternal      = "internal"       // everything else
)

// table is the one code → status table.
var table = []struct {
	code   string
	status int
}{
	{CodeBadRequest, http.StatusBadRequest},
	{CodeNotFound, http.StatusNotFound},
	{CodeDeadline, http.StatusGatewayTimeout},
	{CodeCanceled, http.StatusGatewayTimeout},
	{CodeUnavailable, http.StatusServiceUnavailable},
	{CodeNotServing, http.StatusConflict},
	// 421: this server cannot answer, but another can.
	{CodeNotLeader, http.StatusMisdirectedRequest},
	{CodeStaleMaster, http.StatusMisdirectedRequest},
	{CodeUnknownServer, http.StatusNotFound},
	{CodeRateLimited, http.StatusTooManyRequests},
	{CodeOverCapacity, http.StatusTooManyRequests},
	{CodeShedDegraded, http.StatusTooManyRequests},
	{CodeInternal, http.StatusInternalServerError},
}

// Status is the HTTP status code answers with; a code not in the table
// answers as internal.
func Status(code string) int {
	for _, row := range table {
		if row.code == code {
			return row.status
		}
	}
	return http.StatusInternalServerError
}

// Error is the envelope body, and the one error type that names a code.
type Error struct {
	Code     string `json:"code"`
	Message  string `json:"message"`
	Degraded bool   `json:"degraded,omitempty"`
	// RetryAfter, when positive, goes out as a Retry-After header.
	RetryAfter time.Duration `json:"-"`
	// cause is the error Errorf made; nil for a whole envelope.
	cause error
}

func (e *Error) Error() string { return e.Message }
func (e *Error) Unwrap() error { return e.cause }

// Envelope is the wire shape: the error nested under one key so a
// success body can never be mistaken for a failure.
type Envelope struct {
	Error Error `json:"error"`
}

// Errorf is fmt.Errorf naming code; Errorf(code, "%w", err) tags err,
// its text and chain unchanged.
func Errorf(code, format string, a ...any) error {
	err := fmt.Errorf(format, a...)
	return &Error{Code: code, Message: err.Error(), cause: err}
}

// Of is the envelope err answers with: the outermost *Error in its
// chain — a whole one as is, one Errorf made with err's text — else
// deadline or canceled for a context error it wraps, else internal.
func Of(err error) Error {
	var e *Error
	switch {
	case errors.As(err, &e) && e.cause == nil:
		return *e
	case e != nil:
		return Error{Code: e.Code, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return Error{Code: CodeDeadline, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return Error{Code: CodeCanceled, Message: err.Error()}
	}
	return Error{Code: CodeInternal, Message: err.Error()}
}

// Parse decodes an envelope from a response body. ok is false when the
// body is not an envelope (legacy plain-text error or foreign JSON) —
// callers fall back to the raw text then.
func Parse(body []byte) (Error, bool) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return Error{}, false
	}
	return env.Error, true
}

// DeadlineHeader carries the caller's remaining deadline budget across
// an RPC hop, in integer milliseconds. Sending the *remaining* time
// rather than an absolute instant keeps the protocol immune to clock
// skew between client and server: each hop re-anchors the budget
// against its own clock.
const DeadlineHeader = "X-Pstorm-Deadline"

// SetDeadlineHeader records ctx's remaining budget on h. Contexts
// without a deadline leave the header unset; a deadline that already
// passed is sent as 0 so the server fails fast instead of starting
// work the caller will never see.
func SetDeadlineHeader(h http.Header, ctx context.Context) {
	d, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(d).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	h.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// budget is the time the caller gave: DeadlineHeader, narrowed by a
// body's own Deadline() (a deadline_ms field, <= 0 none). ok is false
// when neither was sent.
func budget(r *http.Request, in any) (d time.Duration, ok bool) {
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms >= 0 {
			d, ok = time.Duration(ms)*time.Millisecond, true
		}
	}
	if b, isB := in.(interface{ Deadline() time.Duration }); isB {
		if bd := b.Deadline(); bd > 0 && (!ok || bd < d) {
			d, ok = bd, true
		}
	}
	return d, ok
}

// call reads r's input into a new T and runs do under r's context
// bounded by the caller's budget, if it sent one.
func call[T any](r *http.Request, do func(*http.Request, *T) (any, error)) (any, error) {
	v := new(T)
	if q, query := any(v).(*url.Values); query {
		*q = r.URL.Query()
	} else if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		return nil, Errorf(CodeBadRequest, "%w", err)
	}
	if d, ok := budget(r, v); ok {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	return do(r, v)
}

// Handle registers path on mux as one endpoint. do's input says what it
// reads: *url.Values the query of a GET, anything else the JSON body of
// a POST. Another method is a 405, a body that does not decode a 400.
// do's answer goes back as JSON, its error as the envelope Of names,
// with its Retry-After in whole seconds, at least 1.
func Handle[T any](mux *http.ServeMux, path string, do func(r *http.Request, in *T) (any, error)) {
	method := http.MethodPost
	if _, query := any((*T)(nil)).(*url.Values); query {
		method = http.MethodGet
	}
	wrongMethod := Error{Code: CodeBadRequest, Message: method + " only"}
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		status, e := http.StatusMethodNotAllowed, wrongMethod
		if r.Method == method {
			out, err := call(r, do)
			if err == nil {
				if err = json.NewEncoder(w).Encode(out); err == nil {
					return
				}
			}
			e = Of(err)
			status = Status(e.Code)
		}
		if e.RetryAfter > 0 {
			secs := max(int64((e.RetryAfter+time.Second-1)/time.Second), 1)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(Envelope{Error: e})
	})
}

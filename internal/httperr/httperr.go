// Package httperr is the JSON error envelope every HTTP surface of the
// repo speaks: the dstore /d/* wire protocol and the gateway serving
// tier. One shape everywhere means a client can always distinguish "the
// store is degraded but answering" from "your request is malformed"
// without parsing prose, and a shed request always carries a
// machine-readable code plus Retry-After.
//
// The envelope is:
//
//	{"error": {"code": "deadline", "message": "...", "degraded": false}}
//
// Codes are stable lowercase_snake identifiers, not HTTP reasons: the
// HTTP status says what the transport should do (retry, back off, give
// up); the code says what actually happened.
package httperr

import (
	"context"
	"encoding/json"
	"net/http"
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

// Error is the envelope body.
type Error struct {
	Code     string `json:"code"`
	Message  string `json:"message"`
	Degraded bool   `json:"degraded,omitempty"`
}

// Envelope is the wire shape: the error nested under one key so a
// success body can never be mistaken for a failure.
type Envelope struct {
	Error Error `json:"error"`
}

// Write sends the envelope with the given HTTP status.
func Write(w http.ResponseWriter, status int, code, message string, degraded bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(Envelope{Error: Error{Code: code, Message: message, Degraded: degraded}})
}

// WriteRetryAfter is Write plus a Retry-After header (rounded up to
// whole seconds, minimum 1) — the shape of every 429 the gateway sheds.
func WriteRetryAfter(w http.ResponseWriter, status int, code, message string, degraded bool, retryAfter time.Duration) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	Write(w, status, code, message, degraded)
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

// ContextFromRequest derives a server-side request context: r's own
// context (canceled when the client connection drops) bounded by the
// remaining budget the client sent in DeadlineHeader, if any. The
// returned cancel must be called when the handler finishes.
func ContextFromRequest(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return context.WithCancel(ctx)
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

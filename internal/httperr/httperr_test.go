package httperr

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// codes is every code constant of the package.
var codes = []string{
	CodeBadRequest, CodeNotFound, CodeDeadline, CodeCanceled, CodeUnavailable,
	CodeNotServing, CodeNotLeader, CodeStaleMaster, CodeUnknownServer,
	CodeRateLimited, CodeOverCapacity, CodeShedDegraded, CodeInternal,
}

// serve sends one request to a mux holding one Handle registration and
// returns the recorder.
func serve[T any](method, body string, hdr http.Header, do func(*http.Request, *T) (any, error)) *httptest.ResponseRecorder {
	mux := http.NewServeMux()
	Handle(mux, "/x", do)
	req := httptest.NewRequest(method, "/x", strings.NewReader(body))
	for k, v := range hdr {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestOneStatusPerCode: the table holds every code once, so each code
// has exactly one status, and an endpoint error naming a code — made
// or tagged by Errorf, wrapped, or a whole *Error — answers with that status
// and that code. The one other status Handle sends is the 405 of a
// wrong method, with code bad_request.
func TestOneStatusPerCode(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range table {
		if seen[row.code] {
			t.Errorf("code %q has more than one row", row.code)
		}
		seen[row.code] = true
	}
	for _, code := range codes {
		if !seen[code] {
			t.Errorf("code %q has no row", code)
		}
	}
	if len(table) != len(codes) {
		t.Errorf("table has %d rows for %d codes", len(table), len(codes))
	}

	for _, code := range codes {
		for name, err := range map[string]error{
			"Errorf":  Errorf(code, "boom %d", 1),
			"tagged":  Errorf(code, "%w", context.Canceled),
			"wrapped": fmt.Errorf("outer: %w", Errorf(code, "boom")),
			"*Error":  &Error{Code: code, Message: "boom"},
		} {
			rec := serve(http.MethodGet, "", nil, func(*http.Request, *url.Values) (any, error) { return nil, err })
			e, ok := Parse(rec.Body.Bytes())
			if !ok || e.Code != code || rec.Code != Status(code) || e.Message != err.Error() {
				t.Errorf("%s %s: answered %d %s, want %d %s with message %q", name, code, rec.Code, rec.Body, Status(code), code, err.Error())
			}
		}
	}

	ok := func(*http.Request, *struct{}) (any, error) { return "ok", nil }
	for _, rec := range []*httptest.ResponseRecorder{
		serve(http.MethodPost, "", nil, func(*http.Request, *url.Values) (any, error) { return "ok", nil }),
		serve(http.MethodGet, "", nil, ok),
		serve("post", "{}", nil, ok),
	} {
		if e, _ := Parse(rec.Body.Bytes()); rec.Code != http.StatusMethodNotAllowed || e.Code != CodeBadRequest || !strings.HasSuffix(e.Message, " only") {
			t.Errorf("wrong method: answered %d %s", rec.Code, rec.Body)
		}
	}
}

// TestOfClassifies pins what an error with no code of its own answers
// with: a context error its own row, anything else internal; and an
// outer code beats an inner one.
func TestOfClassifies(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code string
	}{
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), CodeDeadline},
		{fmt.Errorf("scan: %w", context.Canceled), CodeCanceled},
		{errors.New("disk on fire"), CodeInternal},
		{Errorf(CodeUnavailable, "exhausted: %w", Errorf(CodeNotServing, "moved")), CodeUnavailable},
		{Errorf(CodeBadRequest, "%w", context.Canceled), CodeBadRequest},
	} {
		if got := Of(tc.err); got.Code != tc.code || got.Message != tc.err.Error() {
			t.Errorf("Of(%v) = %+v, want code %s", tc.err, got, tc.code)
		}
	}
}

// TestHandleAnswers pins the rest of the boundary: a body that does not
// decode is 400 bad_request, a success is JSON, a shed carries its
// Retry-After rounded up to whole seconds, and a degraded mark reaches
// the envelope.
func TestHandleAnswers(t *testing.T) {
	type req struct {
		N int `json:"n"`
	}
	echo := func(_ *http.Request, r *req) (any, error) { return r, nil }
	rec := serve(http.MethodPost, `{"n":`, nil, echo)
	if e, _ := Parse(rec.Body.Bytes()); rec.Code != http.StatusBadRequest || e.Code != CodeBadRequest || e.Message != "unexpected EOF" {
		t.Errorf("undecodable body: answered %d %s", rec.Code, rec.Body)
	}
	rec = serve(http.MethodPost, `{"n":3}`, nil, echo)
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"n\":3}\n" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("success: answered %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	shed := &Error{Code: CodeRateLimited, Message: "slow down", Degraded: true, RetryAfter: 1500 * time.Millisecond}
	rec = serve(http.MethodGet, "", nil, func(*http.Request, *url.Values) (any, error) { return nil, shed })
	e, _ := Parse(rec.Body.Bytes())
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "2" || !e.Degraded || e.Message != "slow down" {
		t.Errorf("shed: answered %d Retry-After %q %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
}

// budgetReq carries its own budget, as the gateway's tune and submit
// bodies do.
type budgetReq struct {
	Ms int64 `json:"deadline_ms"`
}

func (r *budgetReq) Deadline() time.Duration { return time.Duration(r.Ms) * time.Millisecond }

// TestHandleBudget: the endpoint's context carries no deadline unless
// the caller sent a budget; the header's and the body's, when both are
// sent, the shorter one wins; a garbled or negative header, or a
// non-positive body budget, is none.
func TestHandleBudget(t *testing.T) {
	for _, tc := range []struct {
		name, header, body string
		want               time.Duration // 0: no deadline
	}{
		{"none", "", `{}`, 0},
		{"header", "5000", `{}`, 5 * time.Second},
		{"body", "", `{"deadline_ms":3000}`, 3 * time.Second},
		{"body shorter", "5000", `{"deadline_ms":3000}`, 3 * time.Second},
		{"header shorter", "2000", `{"deadline_ms":3000}`, 2 * time.Second},
		{"garbled header", "soon", `{"deadline_ms":-1}`, 0},
		{"negative header", "-5", `{}`, 0},
	} {
		hdr := http.Header{}
		if tc.header != "" {
			hdr.Set(DeadlineHeader, tc.header)
		}
		var left time.Duration
		var has bool
		rec := serve(http.MethodPost, tc.body, hdr, func(r *http.Request, _ *budgetReq) (any, error) {
			var d time.Time
			if d, has = r.Context().Deadline(); has {
				left = time.Until(d)
			}
			return "ok", nil
		})
		switch {
		case rec.Code != http.StatusOK:
			t.Errorf("%s: answered %d %s", tc.name, rec.Code, rec.Body)
		case tc.want == 0 && has:
			t.Errorf("%s: the context has a deadline %v away, want none", tc.name, left)
		case tc.want != 0 && (!has || left > tc.want || left < tc.want-time.Second):
			t.Errorf("%s: deadline %v away (set %v), want about %v", tc.name, left, has, tc.want)
		}
	}
}

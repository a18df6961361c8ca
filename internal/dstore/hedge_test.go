package dstore

import (
	"errors"
	"testing"
	"time"
)

// TestHedge drives the hedge helper itself through each way the race
// can end, under the leak guard: whichever side loses, its goroutine
// must still finish and exit.
func TestHedge(t *testing.T) {
	checkGoroutineLeak(t)
	errPrimary := errors.New("primary failed")
	errFollower := errors.New("follower failed")
	const delay = 5 * time.Millisecond
	// answer returns a call that yields (v, err) once gate is closed; a
	// nil gate answers at once. Closing every gate at the end releases
	// the losers so the leak guard sees them exit.
	answer := func(gate <-chan struct{}, v string, err error) func() (string, error) {
		return func() (string, error) {
			if gate != nil {
				<-gate
			}
			return v, err
		}
	}
	for _, tc := range []struct {
		name         string
		primarySlow  bool // primary answers only after the verdict
		primaryErr   error
		followerErr  error
		unresolvable bool // arm cannot produce a follower call
		want         string
		wantErr      error
	}{
		{name: "primary wins before delay", want: "primary"},
		{name: "follower wins", primarySlow: true, want: "follower"},
		{name: "both fail returns primary error", primarySlow: true,
			primaryErr: errPrimary, followerErr: errFollower, want: "primary", wantErr: errPrimary},
		{name: "follower unresolvable falls back", primarySlow: true, unresolvable: true, want: "primary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gate chan struct{}
			if tc.primarySlow {
				gate = make(chan struct{})
			}
			// Without a follower answer the verdict waits for the primary.
			needPrimary := tc.followerErr != nil || tc.unresolvable
			armed := false
			got, err := hedge(delay, answer(gate, "primary", tc.primaryErr), func() (func() (string, error), error) {
				armed = true
				if needPrimary {
					// Let it answer only now, after the delay has
					// demonstrably passed.
					close(gate)
				}
				if tc.unresolvable {
					return nil, errors.New("no follower")
				}
				return answer(nil, "follower", tc.followerErr), nil
			})
			if gate != nil && !needPrimary {
				close(gate)
			}
			if got != tc.want || !errors.Is(err, tc.wantErr) {
				t.Errorf("hedge = (%q, %v), want (%q, %v)", got, err, tc.want, tc.wantErr)
			}
			// arm runs only once the delay has passed with no answer.
			if armed != tc.primarySlow {
				t.Errorf("follower armed = %v, want %v", armed, tc.primarySlow)
			}
		})
	}
}

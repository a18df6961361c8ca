package hstore

import (
	"context"
	"fmt"
	"testing"
)

func multiGetFixture(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put("t", fmt.Sprintf("row%d", i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkMultiGet exercises one client against the fixture: result slices
// index-aligned with the request, missing rows reported found=false,
// empty requests answered without a round trip.
func checkMultiGet(t *testing.T, c *Client) {
	t.Helper()
	keys := []string{"row3", "missing", "row0", "row7", "also-missing"}
	rows, found, err := c.MultiGet(context.Background(), "t", keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	if len(rows) != len(keys) || len(found) != len(keys) {
		t.Fatalf("MultiGet returned %d rows / %d found flags for %d keys", len(rows), len(found), len(keys))
	}
	wantFound := []bool{true, false, true, true, false}
	for i, k := range keys {
		if found[i] != wantFound[i] {
			t.Errorf("key %q: found=%v, want %v", k, found[i], wantFound[i])
			continue
		}
		if !found[i] {
			continue
		}
		one, ok, err := c.Get(context.Background(), "t", k)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", k, ok, err)
		}
		if string(rows[i].Columns["c"]) != string(one.Columns["c"]) {
			t.Errorf("key %q: MultiGet row %v != Get row %v", k, rows[i], one)
		}
	}
	rows, found, err = c.MultiGet(context.Background(), "t", nil)
	if err != nil || len(rows) != 0 || len(found) != 0 {
		t.Errorf("empty MultiGet: rows=%v found=%v err=%v", rows, found, err)
	}
	if _, _, err := c.MultiGet(context.Background(), "no-such-table", []string{"x"}); err == nil {
		t.Error("MultiGet on a missing table should fail")
	}
}

func TestClientMultiGetLocal(t *testing.T) {
	checkMultiGet(t, Connect(multiGetFixture(t)))
}

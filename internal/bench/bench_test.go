package bench

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"pstorm/internal/matcher"
)

// The experiment runners are exercised with a shared environment; every
// table but fig6.2's (GBRT training, covered by the repository's
// testing.B benchmarks) and chaos is also pinned by TestGoldenTables.

func testEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(42)
}

func TestExperimentsRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Experiments() {
		if r.ID == "" || r.Desc == "" || r.Run == nil {
			t.Errorf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := Lookup(r.ID); !ok {
			t.Errorf("Lookup(%s) failed", r.ID)
		}
	}
	for _, want := range []string{"table6.1", "table6.2", "fig1.3", "fig4.1", "fig4.3",
		"fig4.5", "fig4.6", "fig6.1", "fig6.2", "fig6.3"} {
		if !seen[want] {
			t.Errorf("missing paper experiment %s", want)
		}
	}
	if !seen["chaos"] {
		t.Error("missing chaos experiment")
	}
	// Performance is benchmark/'s job; the harness it superseded must
	// not come back.
	for _, gone := range []string{"serve", "tune", "dstore-scale"} {
		if _, ok := Lookup(gone); ok {
			t.Errorf("Lookup(%s) found a retired performance experiment", gone)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown id")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x — T ==", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTable61Inventory(t *testing.T) {
	tabs, err := RunTable61(testEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 20 {
		t.Fatalf("table6.1 has %d rows", len(tabs[0].Rows))
	}
}

func TestTable62Ordering(t *testing.T) {
	e := testEnv(t)
	tabs, err := RunTable62(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	mins := map[string]float64{}
	for _, r := range rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil {
			t.Fatalf("bad runtime cell %q", r[1])
		}
		mins[r[0]] = v
	}
	// The reproduced Table 6.2 shape: wordcount fastest by a wide
	// margin, co-occurrence slowest.
	if !(mins["wordcount"] < mins["inverted-index"] &&
		mins["inverted-index"] < mins["bigram-relfreq"] &&
		mins["bigram-relfreq"] < mins["cooccurrence-pairs"]) {
		t.Errorf("default runtimes out of shape: %v", mins)
	}
	if mins["cooccurrence-pairs"] < 5*mins["wordcount"] {
		t.Errorf("co-occurrence (%v min) should dwarf wordcount (%v min)",
			mins["cooccurrence-pairs"], mins["wordcount"])
	}
}

func TestFig46ShuffleGrowsWithData(t *testing.T) {
	e := testEnv(t)
	tabs, err := RunFig46(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("fig4.6 rows = %d", len(rows))
	}
	small, _ := strconv.ParseFloat(rows[0][2], 64)
	big, _ := strconv.ParseFloat(rows[1][2], 64)
	if big <= small {
		t.Errorf("shuffle on 35GB (%v) not larger than on 1GB (%v)", big, small)
	}
}

func TestFig45PhaseSimilarity(t *testing.T) {
	e := testEnv(t)
	tabs, err := RunFig45(e)
	if err != nil {
		t.Fatal(err)
	}
	// Map-side task totals of co-occurrence and bigram should be within
	// 2x of each other (the paper's "relatively similar" claim).
	mapT := tabs[0]
	co, _ := strconv.ParseFloat(mapT.Rows[0][len(mapT.Columns)-1], 64)
	bg, _ := strconv.ParseFloat(mapT.Rows[1][len(mapT.Columns)-1], 64)
	if co/bg > 2 || bg/co > 2 {
		t.Errorf("map task totals diverge: %v vs %v", co, bg)
	}
}

func TestPStorMAccuracyShape(t *testing.T) {
	e := testEnv(t)
	match, err := e.pstormSideMatch(matcher.New())
	if err != nil {
		t.Fatal(err)
	}
	sdMap, sdRed, err := e.accuracyOf("SD", match)
	if err != nil {
		t.Fatal(err)
	}
	if sdMap < 0.95 {
		t.Errorf("PStorM SD map accuracy %.2f < 0.95 (paper: 100%%)", sdMap)
	}
	if sdRed < 0.90 {
		t.Errorf("PStorM SD reduce accuracy %.2f < 0.90", sdRed)
	}
	ddMap, ddRed, err := e.accuracyOf("DD", match)
	if err != nil {
		t.Fatal(err)
	}
	if ddMap < 0.75 || ddRed < 0.75 {
		t.Errorf("PStorM DD accuracy %.2f/%.2f below the paper's band", ddMap, ddRed)
	}

	// The information-gain baseline must do substantially worse in SD
	// (the Fig 6.1 claim).
	ig, err := e.igSideMatch(false)
	if err != nil {
		t.Fatal(err)
	}
	igMap, _, err := e.accuracyOf("SD", ig)
	if err != nil {
		t.Fatal(err)
	}
	if igMap > sdMap-0.3 {
		t.Errorf("P-features SD accuracy %.2f too close to PStorM's %.2f", igMap, sdMap)
	}
}

func TestAblationPushdownMovesFewerBytes(t *testing.T) {
	e := testEnv(t)
	tabs, err := RunAblationPushdown(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	pushBytes, _ := strconv.ParseInt(rows[0][2], 10, 64)
	clientBytes, _ := strconv.ParseInt(rows[1][2], 10, 64)
	if pushBytes >= clientBytes {
		t.Errorf("pushdown moved %d bytes vs client-side %d", pushBytes, clientBytes)
	}
	pushMatches, clientMatches := rows[0][3], rows[1][3]
	if pushMatches != clientMatches {
		t.Errorf("pushdown and client-side disagree: %s vs %s", pushMatches, clientMatches)
	}
}

func TestAblationDataModelRowCounts(t *testing.T) {
	e := testEnv(t)
	tabs, err := RunAblationDataModel(e)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	t51, _ := strconv.ParseInt(rows[0][2], 10, 64)
	tsdb, _ := strconv.ParseInt(rows[1][2], 10, 64)
	if tsdb <= t51 {
		t.Errorf("OpenTSDB-style model read %d rows vs Table 5.1's %d — locality argument broken", tsdb, t51)
	}
}

func TestStoreStates(t *testing.T) {
	e := testEnv(t)
	sd, err := e.storeState("SD", "wordcount", "wiki-35g")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := e.storeState("DD", "wordcount", "wiki-35g")
	if err != nil {
		t.Fatal(err)
	}
	nj, err := e.storeState("NJ", "wordcount", "wiki-35g")
	if err != nil {
		t.Fatal(err)
	}
	nSD, _ := sd.Len(context.Background())
	nDD, _ := dd.Len(context.Background())
	nNJ, _ := nj.Len(context.Background())
	if nDD != nSD-1 {
		t.Errorf("DD should drop exactly the target profile: %d vs %d", nDD, nSD)
	}
	if nNJ != nSD-2 {
		t.Errorf("NJ should drop both wordcount profiles: %d vs %d", nNJ, nSD)
	}
	if _, err := e.storeState("XX", "wordcount", "wiki-35g"); err == nil {
		t.Error("unknown state accepted")
	}
}

package matcher_test

import (
	"context"
	"testing"

	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/profile"
)

func TestStaticFirstMatchesSeenJob(t *testing.T) {
	st := newStore(t)
	self := fab("self", "jobA", 1000, 1.0, 10, "B L(B)", "MapA")
	decoy := fab("decoy", "jobB", 1000, 1.0, 10, "B", "MapB")
	putProfile(t, st, self)
	putProfile(t, st, decoy)

	m := matcher.New()
	m.StaticFirst = true
	res, err := m.Match(context.Background(), st, sampleLike(self, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() || res.MapJobID != "self" {
		t.Fatalf("static-first failed to match a previously seen job: %+v", res.MapReport)
	}
	if res.MapReport.AfterCFG < 1 || res.MapReport.AfterJaccard < 1 {
		t.Errorf("static-first stages not recorded: %+v", res.MapReport)
	}
}

func TestStaticFirstAppliesDynamicFilterSecond(t *testing.T) {
	st := newStore(t)
	// Identical code, but wildly different dynamics (the window-size
	// trap): static-first still lets the dynamic stage veto it.
	sameCode := fab("samecode", "jobA", 1000, 50.0, 10, "B L(B)", "MapA")
	putProfile(t, st, sameCode)

	m := matcher.New()
	m.StaticFirst = true
	sub := fab("probe", "jobA", 1000, 1.0, 10, "B L(B)", "MapA")
	res, err := m.Match(context.Background(), st, sampleLike(sub, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched() {
		t.Error("static-first should still fail candidates outside the dynamic threshold")
	}
	if res.MapReport.AfterJaccard != 1 || res.MapReport.Stage1Candidates != 0 {
		t.Errorf("expected Jaccard pass then dynamic veto: %+v", res.MapReport)
	}
}

func TestStaticFirstTieBreakByInputSize(t *testing.T) {
	st := newStore(t)
	near := fab("near", "jobA", 1_000, 1.0, 10, "B L(B)", "MapA")
	farSize := fab("farsize", "jobA", 9_000_000, 1.0, 10, "B L(B)", "MapA")
	putProfile(t, st, near)
	putProfile(t, st, farSize)
	m := matcher.New()
	m.StaticFirst = true
	res, err := m.Match(context.Background(), st, sampleLike(near, 1_500))
	if err != nil {
		t.Fatal(err)
	}
	if res.MapJobID != "near" {
		t.Errorf("static-first tie-break chose %s, want near", res.MapJobID)
	}
}

func TestIncludeCostInStage1StillMatchesTwin(t *testing.T) {
	st := newStore(t)
	self := fab("self", "jobA", 1000, 1.0, 10, "B L(B)", "MapA")
	costDecoy := fab("decoy", "jobB", 1000, 1.0, 500, "B L(B)", "MapA")
	putProfile(t, st, self)
	putProfile(t, st, costDecoy)

	m := matcher.New()
	m.IncludeCostInStage1 = true
	res, err := m.Match(context.Background(), st, sampleLike(self, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matched() || res.MapJobID != "self" {
		t.Fatalf("mixed stage-1 lost the twin: %+v", res.MapReport)
	}
	// The decoy's cost vector is 50x off; the mixed filter must have
	// seen it (joined rows) and either kept or cut it, but never crash.
	if res.MapReport.Stage1Candidates < 1 {
		t.Errorf("stage 1 candidates = %d", res.MapReport.Stage1Candidates)
	}
}

func TestCostFallbackExhausted(t *testing.T) {
	st := newStore(t)
	// Candidate passes the dynamic filter but has absurd cost factors
	// and mismatched statics: both static stages and the fallback fail.
	weird := fab("weird", "jobB", 1000, 1.0, 100000, "B BR(B|)", "OtherMapper")
	normal := fab("anchor", "jobC", 1000, 1.0, 10, "B L(B L(B))", "ThirdMapper")
	putProfile(t, st, weird)
	putProfile(t, st, normal)

	sub := fab("sub", "jobNew", 1000, 1.0, 10, "B L(B)", "NewMapper")
	res, err := matcher.New().Match(context.Background(), st, sampleLike(sub, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// The anchor (similar costs) should be found via fallback; the
	// weird one (10000x costs) must not win.
	if res.Matched() && res.MapJobID == "weird" {
		t.Error("fallback returned the candidate with absurd cost factors")
	}
	if res.Matched() && !res.MapReport.UsedCostFallback {
		t.Error("expected the fallback path")
	}
}

// TestMatchReportsCandidateDistances: two stored runs of one job tie on
// input size, so the tie-break compares their dynamic distances; each
// side's WinnerDistance is the closer one's, equal to a distance
// computed here from its stored dynamic row.
func TestMatchReportsCandidateDistances(t *testing.T) {
	ctx := context.Background()
	st := newStore(t)
	putProfile(t, st, fab("self", "jobA", 1000, 1.0, 10, "B L(B)", "MapA"))
	putProfile(t, st, fab("near", "jobA", 1000, 1.05, 10, "B L(B)", "MapA"))
	sample := sampleLike(fab("sub", "jobA", 1000, 1.02, 10, "B L(B)", "MapA"), 1000)
	res, err := matcher.New().Match(ctx, st, sample)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		rep   matcher.SideReport
		ftype string
		feats []string
		flow  map[string]float64
	}{
		{res.MapReport, matcher.FTDynMap, profile.MapDataFlowFeatures, sample.Map.DataFlow},
		{res.ReduceReport, matcher.FTDynRed, profile.ReduceDataFlowFeatures, sample.Reduce.DataFlow},
	} {
		if side.rep.Winner != "self" || side.rep.AfterJaccard != 2 {
			t.Fatalf("%v side: winner %q of %d, want self of both", side.rep.Side, side.rep.Winner, side.rep.AfterJaccard)
		}
		f := &hstore.EuclideanFilter{Features: side.feats, Target: make([]float64, len(side.feats))}
		for i, name := range side.feats {
			f.Target[i] = side.flow[name]
		}
		if f.Min, f.Max, err = st.Bounds(ctx, side.ftype, side.feats); err != nil {
			t.Fatal(err)
		}
		matcher.MergeBounds(f.Min, f.Max, f.Target)
		row, ok, err := st.GetFeatures(ctx, side.ftype, "self")
		if err != nil || !ok {
			t.Fatalf("dynamic row of self: ok=%v err=%v", ok, err)
		}
		if want := f.Distance(row); side.rep.WinnerDistance != want || want <= 0 {
			t.Errorf("%v side: winner distance %v, want %v from the stored row", side.rep.Side, side.rep.WinnerDistance, want)
		}
	}
}

func TestComposeUsesMapDonorInput(t *testing.T) {
	mp := fab("m", "jm", 777, 1, 10, "B", "A")
	rp := fab("r", "jr", 999, 1, 10, "B", "B")
	c := profile.Compose(mp, rp)
	if c.InputBytes != 777 {
		t.Errorf("composite input = %d, want the map donor's 777", c.InputBytes)
	}
}

// Package matcher implements the PStorM profile matcher (Chapter 4):
// the domain-specific, multi-stage algorithm that, given the 1-task
// sample profile and static features of a submitted MapReduce job,
// selects the best-matching stored profile — independently for the map
// side and the reduce side, composing the two winners into the profile
// handed to the cost-based optimizer (§4.3, Fig 4.4).
//
// Stages per side:
//
//  1. Normalized Euclidean distance over the dynamic features (the
//     data-flow statistics of Table 4.1) against every stored profile,
//     keeping candidates within θ_Eucl. An empty result here is a
//     matching failure.
//  2. Conservative CFG matching (synchronized traversal, verdict 0/1).
//  3. Jaccard similarity ≥ θ_Jacc over the categorical static features
//     (Table 4.3).
//     If stages 2–3 empty the candidate set, the job was never run on
//     the cluster before: the alternative filter applies the Euclidean
//     distance over the profile cost factors (Table 4.2) to the stage-1
//     survivors instead.
//  4. Ties are broken by closest input data size (Fig 4.6's rationale:
//     the same job on different data sizes has different shuffle
//     behaviour).
package matcher

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pstorm/internal/hstore"
	"pstorm/internal/obs"
	"pstorm/internal/profile"
)

// Feature-type prefixes: the row-key prefixes of the Table 5.1 data
// model, extended with the map/reduce split PStorM's matcher needs.
const (
	FTDynMap  = "dynmap"
	FTDynRed  = "dynred"
	FTStatMap = "statmap"
	FTStatRed = "statred"
	FTCostMap = "costmap"
	FTCostRed = "costred"
)

// InputBytesColumn is the per-profile input size column stored with the
// dynamic features, used only for tie-breaking (never in distances).
const InputBytesColumn = "!INPUT_BYTES"

// CFGColumn is the canonical-CFG column stored with the static features.
const CFGColumn = "!CFG"

// CallSigColumn stores the §7.2.2 call-flow-graph signature (the CFG
// plus the CFGs of transitively called helpers).
const CallSigColumn = "!CALLSIG"

// ParamColumnPrefix prefixes job-parameter columns in the static rows
// (the §7.2.1 extension).
const ParamColumnPrefix = "!PARAM_"

// Entry is one candidate returned from a feature scan.
type Entry struct {
	JobID string
	Row   hstore.Row
}

// Store is the matcher's view of the profile store. The core package
// implements it over the hstore client with server-side filter pushdown.
type Store interface {
	// ScanFeatures scans all rows of the given feature type through the
	// (pushed-down) filter, returning them in job-ID order: the matcher
	// joins its stages by merging such lists. The context bounds the
	// scan: a canceled caller stops the underlying region scans
	// server-side.
	ScanFeatures(ctx context.Context, ftype string, f hstore.Filter) ([]Entry, error)
	// GetFeatures point-reads one profile's feature row.
	GetFeatures(ctx context.Context, ftype, jobID string) (hstore.Row, bool, error)
	// Bounds returns the min/max observed value per feature, aligned
	// with the features slice, for normalization (§4.2).
	Bounds(ctx context.Context, ftype string, features []string) (min, max []float64, err error)
	// LoadProfile fetches the full stored profile.
	LoadProfile(ctx context.Context, jobID string) (*profile.Profile, error)
}

// MultiGetStore is the optional batched-read upgrade of Store: a store
// that can fetch many feature rows in one round trip implements it, and
// the matcher prefers it over per-candidate GetFeatures calls wherever
// it reads a row per stage-1 survivor.
type MultiGetStore interface {
	Store
	// MultiGetFeatures point-reads one feature row per job ID, returning
	// only the rows that exist, keyed by job ID.
	MultiGetFeatures(ctx context.Context, ftype string, jobIDs []string) (map[string]hstore.Row, error)
}

// getFeatureRows fetches one feature row per candidate — in a single
// round trip when the store supports MultiGetStore, per-row otherwise.
// Missing rows are simply absent from the result.
func getFeatureRows(ctx context.Context, st Store, ftype string, cands []Entry) (map[string]hstore.Row, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	if mg, ok := st.(MultiGetStore); ok {
		ids := make([]string, len(cands))
		for i, c := range cands {
			ids[i] = c.JobID
		}
		return mg.MultiGetFeatures(ctx, ftype, ids)
	}
	rows := make(map[string]hstore.Row, len(cands))
	for _, c := range cands {
		row, ok, err := st.GetFeatures(ctx, ftype, c.JobID)
		if err != nil {
			return nil, err
		}
		if ok {
			rows[c.JobID] = row
		}
	}
	return rows, nil
}

// Matcher holds the thresholds of the multi-stage workflow. The zero
// value is NOT ready; use New for the paper's settings (θ_Jacc = 0.5,
// θ_Eucl = sqrt(#features)/2 — half the maximum possible distance of
// normalized vectors, Chapter 6).
type Matcher struct {
	// JaccardThreshold is θ_Jacc.
	JaccardThreshold float64
	// EuclideanFraction scales θ_Eucl = f * sqrt(#features). The paper
	// uses 0.5.
	EuclideanFraction float64

	// StaticFirst inverts the filter order: CFG and Jaccard filters run
	// before the dynamic-features filter. §4.3 argues this loses the
	// composite-profile opportunity for unseen jobs (and wrongly matches
	// the same program run with different user parameters); the
	// filter-order ablation measures exactly that.
	StaticFirst bool

	// IncludeCostInStage1 appends the profile cost factors to the
	// stage-1 Euclidean vector. §4.1.1 argues their high variance across
	// sample profiles of the same job makes them poor primary matching
	// features; the cost-factor ablation quantifies it.
	IncludeCostInStage1 bool

	// CostOnlyStage1 replaces the stage-1 dynamic features with the cost
	// factors entirely — the sharpest form of the §4.1.1 ablation.
	CostOnlyStage1 bool

	// UseCallFlowGraph switches the stage-2 structural comparison from
	// the function's own CFG to its call-flow-graph signature (§7.2.2):
	// two functions with identical bodies but different helpers stop
	// matching.
	UseCallFlowGraph bool

	// IncludeJobParams adds the submitted job's user parameters to the
	// stage-3 Jaccard vector (§7.2.1): the same program run with a
	// different window size or search pattern is no longer a perfect
	// static match.
	IncludeJobParams bool

	// Obs, when non-nil, receives match-outcome counters
	// (matcher_match_total{outcome=...} and per-side stage counters).
	Obs *obs.Registry
}

// New returns a matcher with the paper's thresholds.
func New() *Matcher {
	return &Matcher{JaccardThreshold: 0.5, EuclideanFraction: 0.5}
}

// SideKind selects the map or reduce side.
type SideKind int

// Side kinds.
const (
	MapSide SideKind = iota
	ReduceSide
)

func (s SideKind) String() string {
	if s == MapSide {
		return "map"
	}
	return "reduce"
}

// SideReport traces one side's trip through the matching workflow.
type SideReport struct {
	Side             SideKind
	Stage1Candidates int
	AfterCFG         int
	AfterJaccard     int
	UsedCostFallback bool
	Winner           string
	WinnerDistance   float64
	Failed           bool
	// Degraded reports that the static/cost feature rows could not be
	// fetched (store partially unavailable after the retry budget), so
	// the side fell back to stage-1-only matching: the winner is the
	// best dynamic-distance candidate, unrefined by CFG or Jaccard.
	Degraded bool
}

// Result is the matcher's verdict for a submitted job.
type Result struct {
	// Profile is the matched (possibly composite) profile, nil when no
	// match was found.
	Profile *profile.Profile
	// MapJobID / ReduceJobID identify the donor profiles.
	MapJobID    string
	ReduceJobID string
	// Composite reports whether the two sides came from different jobs.
	Composite bool
	// Degraded reports that at least one side matched in stage-1-only
	// fallback mode because later-stage feature rows were unreachable.
	Degraded bool

	MapReport    SideReport
	ReduceReport SideReport
}

// Matched reports whether a profile was found.
func (r *Result) Matched() bool { return r.Profile != nil }

// sideSpec bundles the per-side schema.
type sideSpec struct {
	kind        SideKind
	ftDyn       string
	ftStat      string
	ftCost      string
	dynFeatures []string
	costFeats   []string
}

var mapSpec = sideSpec{
	kind: MapSide, ftDyn: FTDynMap, ftStat: FTStatMap, ftCost: FTCostMap,
	dynFeatures: profile.MapDataFlowFeatures, costFeats: profile.MapCostFeatures,
}

var redSpec = sideSpec{
	kind: ReduceSide, ftDyn: FTDynRed, ftStat: FTStatRed, ftCost: FTCostRed,
	dynFeatures: profile.ReduceDataFlowFeatures, costFeats: profile.ReduceCostFeatures,
}

// Match runs the full workflow (Fig 4.4) for a submitted job described
// by its 1-task sample profile (which also carries the job's static
// features; see profile.AttachStatics). The returned Result's Profile
// is ready for the Starfish CBO. The context bounds every store fetch
// the match performs; both sides share it, so a canceled caller stops
// map- and reduce-side scans alike.
func (m *Matcher) Match(ctx context.Context, st Store, sample *profile.Profile) (*Result, error) {
	if sample == nil {
		return nil, fmt.Errorf("matcher: nil sample profile")
	}
	res := &Result{}
	// The two sides are independent trips through the workflow against
	// disjoint row families, so they run concurrently.
	var wg sync.WaitGroup
	var mapErr, redErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.MapReport, mapErr = m.matchSide(ctx, st, mapSpec, &sample.Map, sample.InputBytes, sample.Params)
	}()
	go func() {
		defer wg.Done()
		res.ReduceReport, redErr = m.matchSide(ctx, st, redSpec, &sample.Reduce, sample.InputBytes, sample.Params)
	}()
	wg.Wait()
	if mapErr != nil {
		return nil, mapErr
	}
	if redErr != nil {
		return nil, redErr
	}
	m.countSide(res.MapReport)
	m.countSide(res.ReduceReport)
	res.Degraded = res.MapReport.Degraded || res.ReduceReport.Degraded
	if res.MapReport.Failed || res.ReduceReport.Failed {
		m.Obs.Counter("matcher_match_total", "outcome", "none").Inc()
		return res, nil
	}
	res.MapJobID = res.MapReport.Winner
	res.ReduceJobID = res.ReduceReport.Winner
	res.Composite = res.MapJobID != res.ReduceJobID

	mp, err := st.LoadProfile(ctx, res.MapJobID)
	if err != nil {
		return nil, fmt.Errorf("matcher: loading map donor %s: %w", res.MapJobID, err)
	}
	rp := mp
	if res.Composite {
		rp, err = st.LoadProfile(ctx, res.ReduceJobID)
		if err != nil {
			return nil, fmt.Errorf("matcher: loading reduce donor %s: %w", res.ReduceJobID, err)
		}
	}
	res.Profile = profile.Compose(mp, rp)
	outcome := "whole"
	if res.Composite {
		outcome = "composite"
	}
	m.Obs.Counter("matcher_match_total", "outcome", outcome).Inc()
	return res, nil
}

// countSide records one side's trip through the workflow (no-op when
// Obs is nil).
func (m *Matcher) countSide(rep SideReport) {
	side := rep.Side.String()
	if rep.UsedCostFallback {
		m.Obs.Counter("matcher_cost_fallback_total", "side", side).Inc()
	}
	if rep.Failed {
		m.Obs.Counter("matcher_side_failed_total", "side", side).Inc()
	}
	if rep.Degraded {
		m.Obs.Counter("matcher_degraded_total", "side", side).Inc()
	}
}

// structuralWant returns the stage-2 comparison column and target: the
// plain CFG by default, the call-flow-graph signature under the §7.2.2
// extension.
func (m *Matcher) structuralWant(side *profile.Side) (col, want string) {
	if m.UseCallFlowGraph {
		return CallSigColumn, side.StaticCallSig
	}
	return CFGColumn, side.StaticCFG
}

// structuralScan is stage 2 evaluated where the rows live: one scan of
// the side's static rows with the structural comparison pushed down,
// returning only the rows whose CFG (or call signature) equals the
// probe's, trimmed to the stage-3 columns of jacWant. Both filter
// orders issue it.
func (m *Matcher) structuralScan(ctx context.Context, st Store, spec sideSpec, side *profile.Side, jacWant map[string]string) ([]Entry, error) {
	col, want := m.structuralWant(side)
	f := hstore.Project(&hstore.ColumnEqualsFilter{Column: col, Value: want}, slices.Sorted(maps.Keys(jacWant))...)
	return st.ScanFeatures(ctx, spec.ftStat, f)
}

// jaccardWant returns the stage-3 categorical vector, extended with the
// job parameters under the §7.2.1 extension.
func (m *Matcher) jaccardWant(side *profile.Side, params map[string]string) map[string]string {
	if !m.IncludeJobParams || len(params) == 0 {
		return side.StaticCategorical
	}
	want := make(map[string]string, len(side.StaticCategorical)+len(params))
	for k, v := range side.StaticCategorical {
		want[k] = v
	}
	for k, v := range params {
		want[ParamColumnPrefix+k] = v
	}
	return want
}

// matchSide runs the per-side workflow. Per-candidate state lives in
// slices aligned with the job-ID-ordered candidate list; later stages
// hold indices into it.
func (m *Matcher) matchSide(ctx context.Context, st Store, spec sideSpec, side *profile.Side, inputBytes int64, params map[string]string) (SideReport, error) {
	if m.StaticFirst {
		return m.matchSideStaticFirst(ctx, st, spec, side, inputBytes, params)
	}
	rep := SideReport{Side: spec.kind}

	// ----- Stage 1: Euclidean over dynamic features (pushed down). -----
	dynFeats := spec.dynFeatures
	if m.CostOnlyStage1 {
		dynFeats = spec.costFeats
	} else if m.IncludeCostInStage1 {
		dynFeats = append(append([]string(nil), dynFeats...), spec.costFeats...)
	}
	target := make([]float64, len(dynFeats))
	for i, f := range dynFeats {
		if v, ok := side.DataFlow[f]; ok {
			target[i] = v
		} else {
			target[i] = side.CostFactors[f]
		}
	}
	dynFilter, err := m.stage1Filter(ctx, st, spec, dynFeats, target)
	if err != nil {
		return rep, err
	}
	cands, err := m.stage1Scan(ctx, st, spec, dynFilter)
	if err != nil {
		return rep, err
	}
	rep.Stage1Candidates = len(cands)
	if len(cands) == 0 {
		rep.Failed = true
		return rep, nil
	}

	// ----- Stage 2: conservative CFG match, pushed down. -----
	// The survivors are the stage-1 candidates whose static row the scan
	// returns, found by merging the two job-ID-ordered lists; a probe
	// without a CFG matches nothing and skips the scan.
	// A scan failure means the static rows are unreachable after the
	// client's whole retry budget — a store outage, not a miss. Rather
	// than failing the match (and with it the whole tuning run), degrade
	// to stage-1-only: the dynamic-distance winner is still a defensible
	// profile, just unrefined by the code-identity stages.
	jacWant := m.jaccardWant(side, params)
	var afterCFG []int        // indices into cands
	var statRows []hstore.Row // aligned with afterCFG
	if _, want := m.structuralWant(side); want != "" {
		hits, err := m.structuralScan(ctx, st, spec, side, jacWant)
		if err != nil {
			rep.Degraded = true
			rep.Winner, rep.WinnerDistance = pickWinner(cands, dynFilter, nil, inputBytes)
			return rep, nil
		}
		for i, j := 0, 0; i < len(cands) && j < len(hits); {
			switch c := strings.Compare(cands[i].JobID, hits[j].JobID); {
			case c < 0:
				i++
			case c > 0:
				j++
			default:
				afterCFG = append(afterCFG, i)
				statRows = append(statRows, hits[j].Row)
				i++
				j++
			}
		}
	}
	rep.AfterCFG = len(afterCFG)

	// ----- Stage 3: Jaccard over categorical static features. -----
	// Candidates below θ_Jacc are dropped; among the rest, only the
	// best code match survives to the tie-break. (The input-size rule
	// exists to pick between runs of the SAME code on different data
	// sizes, Fig 4.6 — letting it override a better code match would
	// hand a submission to whichever unrelated job happens to share its
	// input, exactly the DD trap.)
	jac := &hstore.JaccardFilter{Want: jacWant, Threshold: m.JaccardThreshold}
	bestScore := -1.0
	scores := make([]float64, len(afterCFG))
	for k, row := range statRows {
		sc := jac.Score(row)
		scores[k] = sc
		if sc >= m.JaccardThreshold && sc > bestScore {
			bestScore = sc
		}
	}
	var survivors []int // indices into cands
	for k, i := range afterCFG {
		if sc := scores[k]; sc >= m.JaccardThreshold && sc >= bestScore-1e-9 {
			survivors = append(survivors, i)
		}
	}
	rep.AfterJaccard = len(survivors)

	if len(survivors) == 0 {
		// ----- Alternative filter: cost factors over stage-1 set. -----
		// The submitted job was never executed on this cluster; the
		// cost factors, despite their variance, carry the information
		// the What-If engine most depends on (§4.3).
		rep.UsedCostFallback = true
		costTarget := make([]float64, len(spec.costFeats))
		for i, f := range spec.costFeats {
			costTarget[i] = side.CostFactors[f]
		}
		cmin, cmax, err := st.Bounds(ctx, spec.ftCost, spec.costFeats)
		if err != nil {
			rep.Degraded = true
			rep.Winner, rep.WinnerDistance = pickWinner(cands, dynFilter, nil, inputBytes)
			return rep, nil
		}
		mergeBounds(cmin, cmax, costTarget)
		costThr := m.EuclideanFraction * math.Sqrt(float64(len(spec.costFeats)))
		costFilter := &hstore.EuclideanFilter{
			Features: spec.costFeats, Target: costTarget,
			Min: cmin, Max: cmax, Threshold: costThr,
		}
		costRows, err := getFeatureRows(ctx, st, spec.ftCost, cands)
		if err != nil {
			rep.Degraded = true
			rep.Winner, rep.WinnerDistance = pickWinner(cands, dynFilter, nil, inputBytes)
			return rep, nil
		}
		for i, c := range cands {
			if row, ok := costRows[c.JobID]; ok && costFilter.Matches(row) {
				survivors = append(survivors, i)
			}
		}
		if len(survivors) == 0 {
			rep.Failed = true
			return rep, nil
		}
	}

	// ----- Tie-break: closest input data size. -----
	rep.Winner, rep.WinnerDistance = pickWinner(cands, dynFilter, survivors, inputBytes)
	return rep, nil
}

// pickWinner applies the Fig 4.6 tie-break — closest input data size,
// then smallest dynamic distance under dyn — over cands[i] for each i
// in keep, in order (nil keeps every candidate), and returns the winner
// with its distance (every distance reads 0 when dyn is nil). The input
// size is parsed from each compared row's InputBytesColumn; a row
// without one counts as size 0. A distance is computed only where the
// tie-break compares one, and for the winner.
func pickWinner(cands []Entry, dyn *hstore.EuclideanFilter, keep []int, inputBytes int64) (string, float64) {
	distOf := func(i int) float64 {
		if dyn == nil {
			return 0
		}
		return dyn.Distance(cands[i].Row)
	}
	best, bestGap := -1, int64(math.MaxInt64)
	var bestDist float64
	known := false // bestDist holds best's distance
	consider := func(i int) {
		var in int64
		if raw, ok := cands[i].Row.Columns[InputBytesColumn]; ok {
			if v, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
				in = v
			}
		}
		switch gap := absInt64(in - inputBytes); {
		case best == -1 || gap < bestGap:
			best, bestGap, known = i, gap, false
		case gap == bestGap:
			if !known {
				bestDist, known = distOf(best), true
			}
			if d := distOf(i); d < bestDist {
				best, bestDist = i, d
			}
		}
	}
	if keep == nil {
		for i := range cands {
			consider(i)
		}
	} else {
		for _, i := range keep {
			consider(i)
		}
	}
	if !known {
		bestDist = distOf(best)
	}
	return cands[best].JobID, bestDist
}

// stage1Filter builds the normalized Euclidean filter for the stage-1
// feature list, fetching bounds from the right feature-type rows.
func (m *Matcher) stage1Filter(ctx context.Context, st Store, spec sideSpec, feats []string, target []float64) (*hstore.EuclideanFilter, error) {
	var minB, maxB []float64
	var err error
	if m.CostOnlyStage1 {
		minB, maxB, err = st.Bounds(ctx, spec.ftCost, feats)
		if err != nil {
			return nil, err
		}
	} else {
		nDyn := len(spec.dynFeatures)
		minB, maxB, err = st.Bounds(ctx, spec.ftDyn, feats[:nDyn])
		if err != nil {
			return nil, err
		}
		if len(feats) > nDyn {
			cmin, cmax, err := st.Bounds(ctx, spec.ftCost, feats[nDyn:])
			if err != nil {
				return nil, err
			}
			minB = append(minB, cmin...)
			maxB = append(maxB, cmax...)
		}
	}
	mergeBounds(minB, maxB, target)
	thr := m.EuclideanFraction * math.Sqrt(float64(len(feats)))
	return &hstore.EuclideanFilter{
		Features: feats, Target: target,
		Min: minB, Max: maxB, Threshold: thr,
	}, nil
}

// stage1Scan evaluates the stage-1 filter. In the normal configuration
// the filter is pushed down over the dynamic-feature rows; when cost
// factors are mixed in (the ablation), the features span two row
// families, so candidates are joined client-side first.
func (m *Matcher) stage1Scan(ctx context.Context, st Store, spec sideSpec, f *hstore.EuclideanFilter) ([]Entry, error) {
	if m.CostOnlyStage1 {
		// The cost vector lives in one row family, so the filter pushes
		// down over the cost rows; the dynamic row (for the input-size
		// tie-break column) is joined afterwards.
		hits, err := st.ScanFeatures(ctx, spec.ftCost, f)
		if err != nil {
			return nil, err
		}
		dynRows, err := getFeatureRows(ctx, st, spec.ftDyn, hits)
		if err != nil {
			return nil, err
		}
		var out []Entry
		for _, e := range hits {
			dynRow, ok := dynRows[e.JobID]
			if !ok {
				continue
			}
			joined := hstore.Row{Key: e.Row.Key, Columns: maps.Clone(e.Row.Columns)}
			for c, v := range dynRow.Columns {
				joined.Columns[c] = v
			}
			out = append(out, Entry{JobID: e.JobID, Row: joined})
		}
		return out, nil
	}
	if !m.IncludeCostInStage1 {
		return st.ScanFeatures(ctx, spec.ftDyn, f)
	}
	all, err := st.ScanFeatures(ctx, spec.ftDyn, nil)
	if err != nil {
		return nil, err
	}
	costRows, err := getFeatureRows(ctx, st, spec.ftCost, all)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		costRow, ok := costRows[e.JobID]
		if !ok {
			continue
		}
		joined := hstore.Row{Key: e.Row.Key, Columns: maps.Clone(e.Row.Columns)}
		for c, v := range costRow.Columns {
			joined.Columns[c] = v
		}
		if f.Matches(joined) {
			out = append(out, Entry{JobID: e.JobID, Row: joined})
		}
	}
	return out, nil
}

// matchSideStaticFirst is the inverted filter order of the ablation:
// CFG and Jaccard first, the dynamic-features filter last.
func (m *Matcher) matchSideStaticFirst(ctx context.Context, st Store, spec sideSpec, side *profile.Side, inputBytes int64, params map[string]string) (SideReport, error) {
	rep := SideReport{Side: spec.kind}

	// Static stages over the whole store, CFG pushed down.
	jacWant := m.jaccardWant(side, params)
	statCands, err := m.structuralScan(ctx, st, spec, side, jacWant)
	if err != nil {
		return rep, err
	}
	rep.AfterCFG = len(statCands)
	jac := &hstore.JaccardFilter{Want: jacWant, Threshold: m.JaccardThreshold}
	var afterJac []Entry
	for _, c := range statCands {
		if jac.Matches(c.Row) {
			afterJac = append(afterJac, c)
		}
	}
	rep.AfterJaccard = len(afterJac)
	if len(afterJac) == 0 {
		rep.Failed = true
		return rep, nil
	}

	// Dynamic filter over the static survivors. If the dynamic rows are
	// unreachable (store outage, not a miss), degrade to the static
	// verdict alone instead of failing the match.
	target := make([]float64, len(spec.dynFeatures))
	for i, f := range spec.dynFeatures {
		target[i] = side.DataFlow[f]
	}
	dynFilter, err := m.stage1Filter(ctx, st, spec, spec.dynFeatures, target)
	if err != nil {
		rep.Degraded = true
		rep.Winner, rep.WinnerDistance = pickWinner(afterJac, nil, nil, inputBytes)
		return rep, nil
	}
	dynRows, err := getFeatureRows(ctx, st, spec.ftDyn, afterJac)
	if err != nil {
		rep.Degraded = true
		rep.Winner, rep.WinnerDistance = pickWinner(afterJac, nil, nil, inputBytes)
		return rep, nil
	}
	var survivors []Entry
	for _, c := range afterJac {
		if row, ok := dynRows[c.JobID]; ok && dynFilter.Matches(row) {
			survivors = append(survivors, Entry{JobID: c.JobID, Row: row})
		}
	}
	rep.Stage1Candidates = len(survivors)
	if len(survivors) == 0 {
		rep.Failed = true
		return rep, nil
	}
	rep.Winner, rep.WinnerDistance = pickWinner(survivors, dynFilter, nil, inputBytes)
	return rep, nil
}

// mergeBounds prepares the normalization bounds for a filter: it widens
// the store's observed min/max with the probe's own values (the sample
// is itself an observation), then floors each feature's span at a
// fraction of its magnitude. Without the floor, a nearly-degenerate
// range
// would amplify sub-percent measurement noise into full-scale
// normalized distances; and a feature with a sub-50% spread across the
// whole store carries no real discriminative signal anyway.
func mergeBounds(minB, maxB, target []float64) {
	const relFloor = 0.5
	for i, v := range target {
		if v < minB[i] {
			minB[i] = v
		}
		if v > maxB[i] {
			maxB[i] = v
		}
		scale := math.Max(math.Abs(minB[i]), math.Abs(maxB[i]))
		if span := maxB[i] - minB[i]; span < relFloor*scale {
			pad := (relFloor*scale - span) / 2
			minB[i] -= pad
			maxB[i] += pad
		}
	}
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

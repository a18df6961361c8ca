// Package core is PStorM itself: the profile store (Chapter 5) layered
// on the hstore column store using the Table 5.1 data model, and the
// submission workflow of Fig 1.2 that ties the sampler, the matcher,
// and the Starfish-style cost-based optimizer together.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"pstorm/internal/hstore"
	"pstorm/internal/matcher"
	"pstorm/internal/profile"
)

// TableName is the single profiles table of the Table 5.1 data model:
// one table, one column family, feature type as the row-key prefix.
const TableName = "pstorm"

// Row-key layout. The data model of Table 5.1 keys rows as
// "<FeatureType>/<JobID>" so rows of one feature type are contiguous —
// the locality argument of §5.1/§5.2. Bounds rows use a "!" prefix so
// they sort before (and never mix with) profile rows of the same type.
//
// Tenant-namespaced stores insert the tenant between the feature type
// and the job ID: "<FeatureType>/<tenant>!<JobID>". The "!" separator
// (0x21) sorts below every character a tenant ID may contain, so one
// tenant's rows form a contiguous range under each feature type —
// scans stay prefix-bounded per tenant — and no tenant's range can
// contain another's ("a" and "ab" cannot collide). Normalization
// bounds are namespaced the same way: each tenant sees only its own
// feature population.

// tenantSep separates the tenant namespace from the job ID in row
// keys; tenantSepEnd is the next byte, bounding a tenant's scan range.
const (
	tenantSep    = "!"
	tenantSepEnd = "\""
)

// ValidateTenant checks a tenant ID for use as a key namespace:
// nonempty, at most 64 bytes, and only lowercase alphanumerics plus
// "-", "_", and "." — every allowed byte sorts above the "!" separator,
// which the prefix-isolation argument above depends on.
func ValidateTenant(tenant string) error {
	if tenant == "" {
		return fmt.Errorf("core: empty tenant id")
	}
	if len(tenant) > 64 {
		return fmt.Errorf("core: tenant id longer than 64 bytes")
	}
	for i := 0; i < len(tenant); i++ {
		c := tenant[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("core: tenant id %q: byte %q not in [a-z0-9._-]", tenant, c)
		}
	}
	return nil
}

func (s *Store) featureRowKey(ftype, jobID string) string {
	if s.ns == "" {
		return ftype + "/" + jobID
	}
	return ftype + "/" + s.ns + tenantSep + jobID
}

func (s *Store) boundsRowKey(ftype string) string {
	if s.ns == "" {
		return "!bounds/" + ftype
	}
	return "!bounds/" + s.ns + tenantSep + ftype
}

// featureRange returns the scan bounds covering exactly this store's
// rows of one feature type.
func (s *Store) featureRange(ftype string) (start, end string) {
	if s.ns == "" {
		return ftype + "/", ftype + "0" // '0' is the byte after '/'
	}
	return ftype + "/" + s.ns + tenantSep, ftype + "/" + s.ns + tenantSepEnd
}

const (
	ftMeta        = "meta"
	profileColumn = "profile"
)

// ErrNotFound marks a lookup of a profile that is not in the store —
// callers (the HTTP serving tier) translate it to 404 rather than 500.
var ErrNotFound = errors.New("not found")

// KV is the column-store surface the profile store needs. Both
// *hstore.Client (single server) and *dstore.Client (sharded,
// replicated cluster) satisfy it, so one Store implementation serves
// every deployment shape. Every method is ctx-first: the context is the
// caller's deadline, carried all the way to the region servers, so
// abandoned reads and scans stop burning store CPU.
type KV interface {
	CreateTable(ctx context.Context, table string) error
	Put(ctx context.Context, table, row, column string, value []byte) error
	PutRow(ctx context.Context, table string, r hstore.Row) error
	Get(ctx context.Context, table, row string) (hstore.Row, bool, error)
	// Scan returns the rows of [start, end) passing f, in key order,
	// trimmed to its columns when f is an hstore.Project. Each row owns
	// its Columns map; the values are read-only, as Get's are, since an
	// in-process store hands out slices of its own memory.
	Scan(ctx context.Context, table, start, end string, f hstore.Filter, limit int) ([]hstore.Row, error)
	DeleteRow(ctx context.Context, table, row string) error
}

// multiGetKV is the optional batched point-read upgrade of KV. Both
// *hstore.Client and *dstore.Client implement it; a KV without it falls
// back to per-row Gets.
type multiGetKV interface {
	MultiGet(ctx context.Context, table string, rows []string) ([]hstore.Row, []bool, error)
}

// Store is the PStorM profile store.
type Store struct {
	client KV

	// ns is the tenant namespace ("" = the shared, single-tenant store).
	// Namespaced stores share one table and one KV client; the namespace
	// is woven into every row key, so two stores with different ns values
	// can never read or clobber each other's rows.
	ns string

	// mu serializes bounds maintenance (read-modify-write).
	mu sync.Mutex
}

// NewStore opens (creating if necessary) the profile store on the given
// column-store client. The context bounds only the open itself.
func NewStore(ctx context.Context, client KV) (*Store, error) {
	if err := client.CreateTable(ctx, TableName); err != nil {
		// An existing table is fine: the store is shared across runs.
		if _, _, gerr := client.Get(ctx, TableName, "!probe"); gerr != nil {
			return nil, fmt.Errorf("core: opening profile store: %w", err)
		}
	}
	return &Store{client: client}, nil
}

// NewTenantStore opens the profile store scoped to one tenant's
// namespace: every row the store reads or writes carries the tenant in
// its key, so tenants sharing a cluster are fully isolated — profiles,
// scans, and normalization bounds alike. The gateway serving tier opens
// one per tenant at the core.Store boundary.
func NewTenantStore(ctx context.Context, client KV, tenant string) (*Store, error) {
	if err := ValidateTenant(tenant); err != nil {
		return nil, err
	}
	st, err := NewStore(ctx, client)
	if err != nil {
		return nil, err
	}
	st.ns = tenant
	return st, nil
}

// Tenant returns the store's tenant namespace ("" for the shared
// store).
func (s *Store) Tenant() string { return s.ns }

func fmtFloat(v float64) []byte {
	return []byte(strconv.FormatFloat(v, 'g', -1, 64))
}

// PutProfile stores a complete profile under the Table 5.1 schema: one
// row per (feature type, job), plus the serialized profile itself and
// maintained min/max bounds per numeric feature.
func (s *Store) PutProfile(ctx context.Context, p *profile.Profile) error {
	if p == nil || p.JobID == "" {
		return fmt.Errorf("core: profile must have a JobID")
	}
	raw, err := p.Encode()
	if err != nil {
		return err
	}
	rows := []hstore.Row{
		dynRow(s.featureRowKey(matcher.FTDynMap, p.JobID), p.Map.DataFlow, profile.MapDataFlowFeatures, p.InputBytes),
		dynRow(s.featureRowKey(matcher.FTDynRed, p.JobID), p.Reduce.DataFlow, profile.ReduceDataFlowFeatures, p.InputBytes),
		statRow(s.featureRowKey(matcher.FTStatMap, p.JobID), p.Map.StaticCategorical, p.Map.StaticCFG, p.Map.StaticCallSig, p.Params),
		statRow(s.featureRowKey(matcher.FTStatRed, p.JobID), p.Reduce.StaticCategorical, p.Reduce.StaticCFG, p.Reduce.StaticCallSig, p.Params),
		costRow(s.featureRowKey(matcher.FTCostMap, p.JobID), p.Map.CostFactors, profile.MapCostFeatures),
		costRow(s.featureRowKey(matcher.FTCostRed, p.JobID), p.Reduce.CostFactors, profile.ReduceCostFeatures),
		{Key: s.featureRowKey(ftMeta, p.JobID), Columns: map[string][]byte{profileColumn: raw}},
	}
	for _, r := range rows {
		if err := s.client.PutRow(ctx, TableName, r); err != nil {
			return err
		}
	}
	// Maintain normalization bounds (§4.2: the store tracks the min and
	// max observed value of each feature).
	for _, upd := range []struct {
		ftype    string
		values   map[string]float64
		features []string
	}{
		{matcher.FTDynMap, p.Map.DataFlow, profile.MapDataFlowFeatures},
		{matcher.FTDynRed, p.Reduce.DataFlow, profile.ReduceDataFlowFeatures},
		{matcher.FTCostMap, p.Map.CostFactors, profile.MapCostFeatures},
		{matcher.FTCostRed, p.Reduce.CostFactors, profile.ReduceCostFeatures},
	} {
		if err := s.updateBounds(ctx, upd.ftype, upd.features, upd.values); err != nil {
			return err
		}
	}
	return nil
}

func dynRow(key string, values map[string]float64, features []string, inputBytes int64) hstore.Row {
	cols := make(map[string][]byte, len(features)+1)
	for _, f := range features {
		cols[f] = fmtFloat(values[f])
	}
	cols[matcher.InputBytesColumn] = []byte(strconv.FormatInt(inputBytes, 10))
	return hstore.Row{Key: key, Columns: cols}
}

func statRow(key string, cat map[string]string, cfg, callSig string, params map[string]string) hstore.Row {
	cols := make(map[string][]byte, len(cat)+len(params)+2)
	for k, v := range cat {
		cols[k] = []byte(v)
	}
	cols[matcher.CFGColumn] = []byte(cfg)
	if callSig != "" {
		cols[matcher.CallSigColumn] = []byte(callSig)
	}
	// Job parameters ride with the static features so the §7.2.1
	// extension (parameters as static features) can match on them.
	for k, v := range params {
		cols[matcher.ParamColumnPrefix+k] = []byte(v)
	}
	return hstore.Row{Key: key, Columns: cols}
}

func costRow(key string, values map[string]float64, features []string) hstore.Row {
	cols := make(map[string][]byte, len(features))
	for _, f := range features {
		cols[f] = fmtFloat(values[f])
	}
	return hstore.Row{Key: key, Columns: cols}
}

func (s *Store) updateBounds(ctx context.Context, ftype string, features []string, values map[string]float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok, err := s.client.Get(ctx, TableName, s.boundsRowKey(ftype))
	if err != nil {
		return err
	}
	cols := make(map[string][]byte)
	if ok {
		cols = row.Columns
	}
	changed := make(map[string][]byte)
	for _, f := range features {
		v := values[f]
		minKey, maxKey := f+".min", f+".max"
		if raw, ok := cols[minKey]; ok {
			if cur, err := strconv.ParseFloat(string(raw), 64); err == nil && cur <= v {
				// keep current min
			} else {
				changed[minKey] = fmtFloat(v)
			}
		} else {
			changed[minKey] = fmtFloat(v)
		}
		if raw, ok := cols[maxKey]; ok {
			if cur, err := strconv.ParseFloat(string(raw), 64); err == nil && cur >= v {
				// keep current max
			} else {
				changed[maxKey] = fmtFloat(v)
			}
		} else {
			changed[maxKey] = fmtFloat(v)
		}
	}
	for c, v := range changed {
		if err := s.client.Put(ctx, TableName, s.boundsRowKey(ftype), c, v); err != nil {
			return err
		}
	}
	return nil
}

// ScanFeatures implements matcher.Store: a prefix scan over one feature
// type with the filter pushed down to the region server.
func (s *Store) ScanFeatures(ctx context.Context, ftype string, f hstore.Filter) ([]matcher.Entry, error) {
	start, end := s.featureRange(ftype)
	rows, err := s.client.Scan(ctx, TableName, start, end, f, 0)
	if err != nil {
		return nil, err
	}
	out := make([]matcher.Entry, 0, len(rows))
	for _, r := range rows {
		out = append(out, matcher.Entry{JobID: r.Key[len(start):], Row: r})
	}
	return out, nil
}

// GetFeatures implements matcher.Store.
func (s *Store) GetFeatures(ctx context.Context, ftype, jobID string) (hstore.Row, bool, error) {
	return s.client.Get(ctx, TableName, s.featureRowKey(ftype, jobID))
}

// MultiGetFeatures implements matcher.MultiGetStore: one feature row per
// job ID, fetched in a single round trip per shard when the underlying
// client supports batched reads.
func (s *Store) MultiGetFeatures(ctx context.Context, ftype string, jobIDs []string) (map[string]hstore.Row, error) {
	out := make(map[string]hstore.Row, len(jobIDs))
	if mg, ok := s.client.(multiGetKV); ok {
		keys := make([]string, len(jobIDs))
		for i, id := range jobIDs {
			keys[i] = s.featureRowKey(ftype, id)
		}
		rows, found, err := mg.MultiGet(ctx, TableName, keys)
		if err != nil {
			return nil, err
		}
		for i, id := range jobIDs {
			if found[i] {
				out[id] = rows[i]
			}
		}
		return out, nil
	}
	for _, id := range jobIDs {
		row, ok, err := s.client.Get(ctx, TableName, s.featureRowKey(ftype, id))
		if err != nil {
			return nil, err
		}
		if ok {
			out[id] = row
		}
	}
	return out, nil
}

// Bounds implements matcher.Store.
func (s *Store) Bounds(ctx context.Context, ftype string, features []string) ([]float64, []float64, error) {
	row, ok, err := s.client.Get(ctx, TableName, s.boundsRowKey(ftype))
	minB := make([]float64, len(features))
	maxB := make([]float64, len(features))
	if err != nil || !ok {
		return minB, maxB, err
	}
	for i, f := range features {
		if raw, ok := row.Columns[f+".min"]; ok {
			minB[i], _ = strconv.ParseFloat(string(raw), 64)
		}
		if raw, ok := row.Columns[f+".max"]; ok {
			maxB[i], _ = strconv.ParseFloat(string(raw), 64)
		}
	}
	return minB, maxB, nil
}

// LoadProfile implements matcher.Store.
func (s *Store) LoadProfile(ctx context.Context, jobID string) (*profile.Profile, error) {
	row, ok, err := s.client.Get(ctx, TableName, s.featureRowKey(ftMeta, jobID))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: no stored profile for job %s: %w", jobID, ErrNotFound)
	}
	return profile.Decode(row.Columns[profileColumn])
}

// DeleteProfile removes a stored profile: every feature row and the
// serialized profile blob are tombstoned (§5: "updates consist of
// adding new profiles ... and possibly deleting old profiles to free
// up space"). Normalization bounds are high-water marks and are not
// shrunk by deletion, matching the store's monotone min/max semantics.
func (s *Store) DeleteProfile(ctx context.Context, jobID string) error {
	for _, ft := range []string{
		matcher.FTDynMap, matcher.FTDynRed, matcher.FTStatMap,
		matcher.FTStatRed, matcher.FTCostMap, matcher.FTCostRed, ftMeta,
	} {
		if err := s.client.DeleteRow(ctx, TableName, s.featureRowKey(ft, jobID)); err != nil {
			return err
		}
	}
	return nil
}

// JobIDs lists every stored profile's job ID (within the store's
// namespace).
func (s *Store) JobIDs(ctx context.Context) ([]string, error) {
	start, end := s.featureRange(ftMeta)
	rows, err := s.client.Scan(ctx, TableName, start, end, nil, 0)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.Key[len(start):])
	}
	return out, nil
}

// Len returns the number of stored profiles.
func (s *Store) Len(ctx context.Context) (int, error) {
	ids, err := s.JobIDs(ctx)
	return len(ids), err
}

var _ matcher.Store = (*Store)(nil)
var _ matcher.MultiGetStore = (*Store)(nil)

package hstore

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
)

// Disk persistence. A server can checkpoint itself to a directory —
// every region's memstore is flushed and compacted into one sstable
// file, with a MANIFEST describing tables and key ranges — and be
// reopened from it later. The profile store survives daemon restarts
// this way, which a long-lived PStorM deployment needs: profiles are
// accumulated over months of cluster operation.

// manifest is the on-disk catalog.
type manifest struct {
	Version int             `json:"version"`
	Tables  []manifestTable `json:"tables"`
}

type manifestTable struct {
	Name    string           `json:"name"`
	Regions []manifestRegion `json:"regions"`
}

type manifestRegion struct {
	ID       int    `json:"id"`
	StartKey string `json:"start_key"`
	EndKey   string `json:"end_key"`
	File     string `json:"file"`
}

const manifestName = "MANIFEST.json"

// SaveTo checkpoints the whole server into dir (created if needed).
// Existing contents of dir are replaced: each sstable and then the
// MANIFEST goes through replaceFile (written to a temp, synced,
// renamed), and only then does the WAL drop the records logged before
// the first compaction began. A crash or a failed write part-way leaves
// every file whole — old or new, each covered by the WAL, which still
// holds every write since the last checkpoint. The mark waits for every
// write already in the WAL to reach its memstore, so the compactions
// cover all of them; a write logged after the mark stays in the WAL,
// since its region's file may already be written without it. SaveTo
// calls run one at a time, so no other rewrite moves the mark.
func (s *Server) SaveTo(dir string) error {
	s.save.Lock()
	defer s.save.Unlock()
	fsys := s.fsys()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var mark int64
	if s.wal != nil {
		s.ckpt.Lock()
		mark = s.wal.Size()
		s.ckpt.Unlock()
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	tables := make(map[string][]*region, len(names))
	for _, n := range names {
		tables[n] = append([]*region(nil), s.tables[n].regions...)
	}
	s.mu.RUnlock()

	var m manifest
	m.Version = 1
	for _, n := range names {
		mt := manifestTable{Name: n}
		for _, g := range tables[n] {
			// Compaction folds the memstore and all segments into one
			// sstable; the region then has exactly one file to persist.
			// A quarantined or corrupt region must not be checkpointed:
			// the checkpoint would immortalize garbage.
			if err := g.compact(); err != nil {
				return withTable(err, n)
			}
			g.mu.RLock()
			var seg *sstable
			if len(g.sstables) > 0 {
				seg = g.sstables[0]
			}
			mr := manifestRegion{ID: g.id, StartKey: g.startKey, EndKey: g.endKey}
			g.mu.RUnlock()
			if seg != nil && seg.count > 0 {
				mr.File = fmt.Sprintf("%s-region%04d.sst", sanitize(n), mr.ID)
				if err := replaceFile(fsys, filepath.Join(dir, mr.File), seg.encode()); err != nil {
					return err
				}
			}
			mt.Regions = append(mt.Regions, mr)
		}
		m.Tables = append(m.Tables, mt)
	}
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := replaceFile(fsys, filepath.Join(dir, manifestName), raw); err != nil {
		return err
	}
	// The checkpoint now covers everything the WAL recorded up to mark.
	if s.wal != nil {
		return s.wal.DropBefore(mark)
	}
	return nil
}

func sanitize(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// loadServerFS reopens a server previously checkpointed with SaveTo,
// reading through fsys; OpenDurable is the exported way in. Every
// sstable file's checksums are verified as it is read back; a corrupt
// file fails the load with a CorruptionError (and is counted) rather
// than being served as data.
func loadServerFS(dir string, fsys FS) (*Server, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("hstore: opening checkpoint: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("hstore: corrupt manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, fmt.Errorf("hstore: unsupported manifest version %d", m.Version)
	}
	s := NewServer()
	for _, mt := range m.Tables {
		t := &table{name: mt.Name}
		for _, mr := range mt.Regions {
			g := newRegion(mr.ID, mr.StartKey, mr.EndKey, s.flushBytes(), s.stats)
			if mr.File != "" {
				seg, err := readSSTableFile(fsys, filepath.Join(dir, mr.File))
				if err != nil {
					if IsCorruption(err) {
						s.stats.corruption()
					}
					return nil, fmt.Errorf("hstore: region %d of %q: %w", mr.ID, mt.Name, err)
				}
				g.sstables = []*sstable{seg}
			}
			t.regions = append(t.regions, g)
			if mr.ID >= s.nextID {
				s.nextID = mr.ID + 1
			}
		}
		if len(t.regions) == 0 {
			t.regions = []*region{newRegion(s.nextID, "", "", s.flushBytes(), s.stats)}
			s.nextID++
		}
		s.tables[mt.Name] = t
	}
	return s, nil
}

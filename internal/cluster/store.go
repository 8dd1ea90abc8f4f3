package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"metajit/internal/telemetry"
)

// Store errors. ErrNotFound is a plain miss; ErrCorrupt means a blob
// existed but failed verification and has been quarantined — the caller
// must fall back to re-simulating (which also repairs the store, since
// the fresh result is written back).
var (
	ErrNotFound = errors.New("cluster: result not in store")
	ErrCorrupt  = errors.New("cluster: corrupt result blob")
)

// storeMagic/storeVersion frame a blob on disk. The layout is
//
//	"MTJS" | version byte | 32-byte CellID | 8-byte payload length |
//	payload | 4-byte CRC32-IEEE over everything before it
//
// The embedded CellID makes every blob self-identifying: a blob
// renamed, hard-linked, or cross-written to the wrong path is detected
// on read even when its CRC is internally consistent — the address must
// match the content's claimed identity, that is what "content
// addressed" promises.
const (
	storeMagic   = "MTJS"
	storeVersion = 1
)

// Store is the disk-backed content-addressed result store: CellID →
// verified result blob. It is shared between all workers on a host (or
// a shared mount) and survives restarts. Writes are atomic
// (temp+rename) so concurrent writers of the same cell — which by
// determinism carry identical bytes — never expose a torn blob. Every
// read re-verifies framing, identity, and checksum; anything off is
// quarantined, never served.
type Store struct {
	dir  string
	seq  atomic.Uint64 // distinguishes temp files and quarantine names
	mu   sync.Mutex    // serializes quarantine renames
	m    storeMetrics
	regd bool
}

type storeMetrics struct {
	hits    *telemetry.Counter
	misses  *telemetry.Counter
	writes  *telemetry.Counter
	corrupt *telemetry.Counter
	readNS  *telemetry.Histogram
	writeNS *telemetry.Histogram
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("cluster: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// InstallTelemetry registers the store's counters on a registry
// (cluster_store_*). Call at most once per store.
func (s *Store) InstallTelemetry(r *telemetry.Registry) {
	if s.regd || r == nil {
		return
	}
	s.regd = true
	s.m.hits = r.Counter("cluster_store_hits_total", "Result reads served from the content store.")
	s.m.misses = r.Counter("cluster_store_misses_total", "Result reads that found no (usable) blob.")
	s.m.writes = r.Counter("cluster_store_writes_total", "Result blobs written to the content store.")
	s.m.corrupt = r.Counter("cluster_store_corrupt_total", "Blobs that failed verification and were quarantined.")
	s.m.readNS = r.Histogram("cluster_store_read_ns", "Nanoseconds per store read (hit, miss, or quarantine), verification included.")
	s.m.writeNS = r.Histogram("cluster_store_write_ns", "Nanoseconds per store write, atomic rename included.")
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id CellID) string {
	h := id.Hex()
	return filepath.Join(s.dir, h[:2], h+".mtjs")
}

// Put writes a result blob for a cell. Writing an already-present cell
// is a no-op (results are immutable by content addressing), so
// concurrent double-computes race harmlessly.
func (s *Store) Put(id CellID, payload []byte) error {
	start := time.Now()
	defer func() { s.m.writeNS.Observe(uint64(time.Since(start).Nanoseconds())) }()
	final := s.path(id)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("cluster: store put: %w", err)
	}
	blob := frame(id, payload)
	tmp := fmt.Sprintf("%s.tmp.%d.%d", final, os.Getpid(), s.seq.Add(1))
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("cluster: store put: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cluster: store put: %w", err)
	}
	s.m.writes.Inc()
	return nil
}

// frame returns the blob Put writes for a cell's payload, in the layout
// storeMagic describes.
func frame(id CellID, payload []byte) []byte {
	blob := make([]byte, 0, len(storeMagic)+1+len(id)+8+len(payload)+4)
	blob = append(blob, storeMagic...)
	blob = append(blob, storeVersion)
	blob = append(blob, id[:]...)
	blob = binary.BigEndian.AppendUint64(blob, uint64(len(payload)))
	blob = append(blob, payload...)
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
}

// Get returns the verified payload for a cell. A missing or
// version-superseded blob is ErrNotFound; a blob that fails
// verification is moved to the quarantine directory and reported as
// ErrCorrupt (wrapped with the reason) — corrupted results are never
// served and never consulted again.
func (s *Store) Get(id CellID) ([]byte, error) {
	start := time.Now()
	defer func() { s.m.readNS.Observe(uint64(time.Since(start).Nanoseconds())) }()
	p := s.path(id)
	blob, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			s.m.misses.Inc()
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("cluster: store get: %w", err)
	}
	payload, err := s.verify(id, blob)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			// Old format version: superseded, not corrupt. Remove so the
			// rewrite isn't blocked by Put's existence check.
			os.Remove(p)
			s.m.misses.Inc()
			return nil, ErrNotFound
		}
		s.quarantine(p, id)
		s.m.corrupt.Inc()
		return nil, err
	}
	s.m.hits.Inc()
	return payload, nil
}

// verify checks a blob's framing against the requested identity and
// returns its payload.
func (s *Store) verify(id CellID, blob []byte) ([]byte, error) {
	head := len(storeMagic) + 1 + len(id) + 8
	if len(blob) < head+4 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrCorrupt, len(blob))
	}
	if string(blob[:4]) != storeMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, blob[:4])
	}
	if blob[4] != storeVersion {
		return nil, fmt.Errorf("%w: format version %d", ErrNotFound, blob[4])
	}
	var claimed CellID
	copy(claimed[:], blob[5:5+len(id)])
	if claimed != id {
		return nil, fmt.Errorf("%w: blob claims cell %s, want %s", ErrCorrupt, claimed.Short(), id.Short())
	}
	n := binary.BigEndian.Uint64(blob[5+len(id) : head])
	if uint64(len(blob)) != uint64(head)+n+4 {
		return nil, fmt.Errorf("%w: payload length %d vs blob %d", ErrCorrupt, n, len(blob))
	}
	body, sum := blob[:len(blob)-4], binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return blob[head : len(blob)-4], nil
}

// reject takes a verified blob whose payload its reader cannot use off
// the path: removed when superseded, quarantined as corrupt otherwise.
func (s *Store) reject(id CellID, superseded bool) {
	p := s.path(id)
	if superseded {
		os.Remove(p)
		return
	}
	s.quarantine(p, id)
	s.m.corrupt.Inc()
}

// quarantine moves a bad blob aside for post-mortem instead of deleting
// evidence; failure to move still removes it from the serving path.
func (s *Store) quarantine(p string, id CellID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst := filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d", id.Hex(), s.seq.Add(1)))
	if err := os.Rename(p, dst); err != nil {
		os.Remove(p)
	}
}

// Quarantined lists quarantined blob files (tests and operators).
func (s *Store) Quarantined() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		out = append(out, filepath.Join(s.dir, "quarantine", e.Name()))
	}
	return out, nil
}

// Len counts stored (non-quarantined) blobs — a test convenience, not a
// hot path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "quarantine" {
			return filepath.SkipDir
		}
		if !d.IsDir() && filepath.Ext(p) == ".mtjs" {
			n++
		}
		return nil
	})
	return n, err
}

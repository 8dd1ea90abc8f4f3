// Package cluster shards the mtjitd memoizer across processes: a
// frontend consistent-hashes experiment cells over N worker daemons, a
// disk-backed content-addressed store shares finished results between
// workers and across restarts, and in-flight deduplication
// (singleflight) collapses identical concurrent cells into one
// simulation cluster-wide. The worker is the repo's one run server:
// mtjitd's single mode is a worker with no store and no frontend.
//
// The whole design leans on one property the single-process harness
// already guarantees: a cell — a (benchmark, VM configuration, options)
// triple, resolved to a harness.Spec — simulates to a
// bit-identical Result no matter where or when it runs. That makes
// results content-addressable: the SHA-256 of the canonical Spec
// encoding names the result forever, so any worker may serve any cell,
// a restarted worker re-serves what it computed in a previous life, and
// a frontend may fail a request over to the ring successor without
// risking a wrong answer. The chaostest subpackage turns that property
// into the cluster's correctness oracle: under seeded fault schedules
// (worker kill/restart, RPC drop/delay, store corruption) every
// accepted request must return a result byte-identical to the
// single-process memoizer's.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// CellID is the content address of one experiment cell: the SHA-256 of
// specVersion and the canonical encoding of its harness.Spec. Everything
// in the cluster — ring placement, store paths, in-flight dedup — keys on
// it.
type CellID [sha256.Size]byte

// Hex renders the id as lowercase hex (store filenames, logs).
func (id CellID) Hex() string { return hex.EncodeToString(id[:]) }

// Short renders the first 8 hex digits for human-facing output.
func (id CellID) Short() string { return hex.EncodeToString(id[:4]) }

// specVersion opens the hashed stream and names the layout of
// harness.Spec and what it simulates to: bump it when a Spec field moves
// or a result does (TestResultsPinnedToSpecVersion), and regenerate
// testdata/ring_golden.txt. It is never zero, and every canonical Spec
// encoding starts with the high zero byte of Bench's length, so no
// address can equal an unversioned one (DESIGN.md §11).
const specVersion = 3

// IDOf content-addresses a cell. The canonical encoding walks the Spec
// reflectively (see canonicalAppend), so the address covers exactly what
// harness.Run simulates from: defaults resolved, no sink, no file path.
// Any built-in Spec fits the stack buffer: an address allocates nothing.
func IDOf(spec harness.Spec) CellID {
	return sha256.Sum256(canonicalAppend(append(make([]byte, 0, 512), specVersion), reflect.ValueOf(spec)))
}

// Request is the cluster's wire form of one cell: the subset of
// harness.Options a remote client may set, plus identity. It is the
// body of POST /run on both the frontend and the workers. Zero-valued
// tuning fields keep harness defaults. A tuning field is one that can
// change the reply's result: an option whose output the WireResult does
// not carry (a sample interval — there are no Samples on the wire) would
// only split the cell.
type Request struct {
	Bench             string `json:"bench"`
	VM                string `json:"vm"`
	Threshold         int    `json:"threshold,omitempty"`
	BridgeThreshold   int    `json:"bridge_threshold,omitempty"`
	BaselineThreshold int    `json:"baseline_threshold,omitempty"`
	// Fresh forces re-simulation: the worker replaces its memoized cell
	// (or joins the simulation in flight) and bypasses, but still
	// refreshes, the content store.
	Fresh bool `json:"fresh,omitempty"`
}

// decodeRequest parses the body of a POST /run, on the frontend and on
// the workers alike: at most 1 MiB, and no field Request does not have,
// so that a misspelt option is refused instead of silently ignored.
func decodeRequest(rw http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// Options maps the request onto harness run options.
func (r *Request) Options() harness.Options {
	return harness.Options{
		Threshold:         r.Threshold,
		BridgeThreshold:   r.BridgeThreshold,
		BaselineThreshold: r.BaselineThreshold,
	}
}

// VMKind validates and resolves the request's VM field.
func (r *Request) VMKind() (harness.VMKind, error) {
	return harness.ParseVMKind(r.VM)
}

// Catalog resolves benchmark names to programs: the 21 built-in
// benchmarks plus any recorded-trace benchmarks loaded from a fixture
// directory. Frontend and workers must share a catalog — the CellID
// covers the program's TraceHash, so both sides have to resolve a name
// to the same recording for routing and storage to agree.
type Catalog struct {
	traces map[string]*bench.Program
}

// NewCatalog builds a catalog; traceDir optionally adds recorded-trace
// benchmarks (bench.LoadTraceDir), "" loads none.
func NewCatalog(traceDir string) (*Catalog, error) {
	c := &Catalog{traces: map[string]*bench.Program{}}
	if traceDir != "" {
		progs, err := bench.LoadTraceDir(traceDir)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace catalog: %w", err)
		}
		for i := range progs {
			p := &progs[i]
			c.traces[p.Name] = p
		}
	}
	return c, nil
}

// Resolve returns the program for a benchmark name, or nil.
func (c *Catalog) Resolve(name string) *bench.Program {
	if p := bench.ByName(name); p != nil {
		return p
	}
	if c == nil {
		return nil
	}
	return c.traces[name]
}

// Cell resolves a request against the catalog into its program, VM
// kind, options, and content address.
func (c *Catalog) Cell(r *Request) (*bench.Program, harness.VMKind, harness.Options, CellID, error) {
	p := c.Resolve(r.Bench)
	if p == nil {
		return nil, "", harness.Options{}, CellID{}, fmt.Errorf("unknown benchmark %q", r.Bench)
	}
	kind, err := r.VMKind()
	if err != nil {
		return nil, "", harness.Options{}, CellID{}, err
	}
	// The request is outside input: a negative threshold is refused as
	// malformed rather than run with the default that zero asks for.
	if r.Threshold < 0 || r.BridgeThreshold < 0 || r.BaselineThreshold < 0 {
		return nil, "", harness.Options{}, CellID{}, errors.New("threshold, bridge_threshold and baseline_threshold must not be negative (0 keeps the default)")
	}
	opt := r.Options()
	return p, kind, opt, IDOf(harness.Key(p, kind, opt)), nil
}

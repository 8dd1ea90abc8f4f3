package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// resultDigests pins, for each specVersion, the SHA-256 over the canary
// cells' names and wire results. An address names a result forever: a
// store or a deployed worker keeps serving what it computed under the
// version in its CellIDs, so a change that moves any result without
// moving specVersion serves stale numbers under live addresses.
var resultDigests = map[byte]string{
	3: "1991c66d1f34965aae495a789a95d3740507aa4db79ee76fbf1e300182b71c64",
	4: "fcbb004e1fb14a24a76c1b633e72082bedc27c8df61606d8d955c5db303971c9",
}

// canaries are short cells over every guest family: fasta runs on every
// kind (it has a static kernel and a Scheme source), telco on the
// reference interpreter and both pypy kinds, richards compiles a method
// on pypy-amalg, and pidigits spends its time in AOT bigint code.
var canaries = []struct {
	bench string
	kinds []harness.VMKind
}{
	{"fasta", []harness.VMKind{harness.VMCPython, harness.VMPyPyNoJIT, harness.VMPyPyJIT, harness.VMPyPyTiered,
		harness.VMPyPyAmalg, harness.VMPyPyAdaptive, harness.VMRacket, harness.VMPycket, harness.VMC}},
	{"telco", []harness.VMKind{harness.VMCPython, harness.VMPyPyJIT, harness.VMPyPyTiered}},
	{"richards", []harness.VMKind{harness.VMPyPyAmalg}},
	{"pidigits", []harness.VMKind{harness.VMPyPyJIT}},
}

// TestResultsPinnedToSpecVersion simulates the canaries and compares the
// digest of their results with the one committed for specVersion.
func TestResultsPinnedToSpecVersion(t *testing.T) {
	h := sha256.New()
	for _, c := range canaries {
		for _, kind := range c.kinds {
			res, err := harness.Run(bench.ByName(c.bench), kind, harness.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.bench, kind, err)
			}
			h.Write([]byte(c.bench + "/" + string(kind) + "\n"))
			h.Write(FromResult(res).Encode())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != resultDigests[specVersion] {
		t.Fatalf("results moved: bump specVersion, regenerate ring_golden.txt and this digest "+
			"(specVersion %d: committed %q, got %q)", specVersion, resultDigests[specVersion], got)
	}
}

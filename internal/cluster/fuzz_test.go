package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// FuzzRunRequest feeds arbitrary bytes to what both handlers do with a
// POST /run body before any work: decodeRequest, then Catalog.Cell.
// Neither may panic, a request they accept has no negative threshold
// (one would name a second cell for the default), and it must name the
// same cell once re-marshalled — the frontend forwards json.Marshal of
// what it decoded, and routing, coalescing and the store all assume the
// worker computes the CellID the frontend did. The seeds below are the pinned
// corpus: each accepted shape, each refusal, and the inputs a decoder
// gets wrong first.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"telco","vm":"pypy"}`,
		`{"bench":"telco","vm":"pypy-tiered","threshold":40,"bridge_threshold":7,"baseline_threshold":3}`,
		`{"bench":"richards","vm":"pypy-amalg","fresh":true}`,
		`{"bench":"telco","vm":"pypy","threshold":-1}`,
		`{"bench":"telco","vm":"pypy-tiered","bridge_threshold":-1,"baseline_threshold":-1}`,
		`{"bench":"telco","vm":"pypy","threshold":9223372036854775807,"baseline_threshold":-9223372036854775808}`,
		`{"bench":"telco","vm":"pypy","threshold":9223372036854775808}`,
		`{"bench":"telco","vm":"pypy","sample_interval":1}`,  // moved the cell, not the reply; unknown now
		`{"bench":"telco","vm":"pypy","max_instrs":2000000}`, // a field until PR 22; unknown now
		`{"bench":"telco","vm":"pypy","threshold":1e3}`,
		`{"bench":"telco","vm":"pypy","threshold":1.5}`,
		`{"BENCH":"telco","Vm":"pypy"}`,
		`{"bench":"telco","bench":"chaos","vm":"pypy"}`,
		`{"bench":"telc\u006f","vm":"\u0070ypy"}`,
		"{\"bench\":\"telco\xff\",\"vm\":\"pypy\"}",
		`{"bench":"telco","vm":"pypy"} {"bench":"chaos","vm":"pypy"}`,
		`{"bench":"telco","vm":"pypy","frehs":true}`,
		`{"bench":"nope","vm":"pypy"}`,
		`{"bench":"telco","vm":"jvm"}`,
		`{"bench":null,"vm":null}`,
		`{"bench":["telco"],"vm":"pypy"}`,
		`null`,
		`[]`,
		`"telco"`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	catalog, err := NewCatalog("")
	if err != nil {
		f.Fatal(err)
	}
	decode := func(body []byte) (Request, error) {
		return decodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			return
		}
		_, _, _, id, err := catalog.Cell(&req)
		if err != nil {
			return
		}
		if req.Threshold < 0 || req.BridgeThreshold < 0 || req.BaselineThreshold < 0 {
			t.Fatalf("accepted a negative threshold, a second name for the default cell: %+v", req)
		}
		forwarded, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, err := decode(forwarded)
		if err != nil {
			t.Fatalf("the worker would refuse what the frontend forwards: %v\n%s", err, forwarded)
		}
		_, _, _, id2, err := catalog.Cell(&again)
		if err != nil || id2 != id {
			t.Fatalf("forwarded request names cell %s (%v), the original %s\n%s\n%s", id2.Short(), err, id.Short(), body, forwarded)
		}
		if again != req {
			t.Fatalf("forwarded request decodes to %+v, the original to %+v", again, req)
		}
	})
}

// FuzzDecodeResult feeds arbitrary bytes to DecodeResult, which reads
// every store payload a worker serves: a blob whose frame and CRC
// verified is still bytes another process wrote. It may not panic, and a
// payload it accepts must re-encode to exactly its input — the encoding
// is canonical, so one result has one payload, and byte equality of
// payloads stands in for equality of results. The seeds are the pinned
// corpus: an empty and a full result, a fake simulation's, and each way
// a payload is refused.
func FuzzDecodeResult(f *testing.F) {
	full := sampleResult().Encode()
	res, err := fakeSimulate(bench.ByName("telco"), harness.VMPyPyJIT, harness.Options{})
	if err != nil {
		f.Fatal(err)
	}
	hugeBench := append([]byte{wireVersion}, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	for _, seed := range [][]byte{
		(&WireResult{}).Encode(),
		full,
		FromResult(res).Encode(),
		nil,
		{wireVersion},
		append([]byte{wireVersion + 1}, full[1:]...), // superseded
		full[:len(full)/2],
		full[:len(full)-1],
		append(append([]byte(nil), full...), 0),
		hugeBench, // a Bench length past the payload
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := DecodeResult(payload)
		if err != nil {
			return
		}
		if again := res.Encode(); !bytes.Equal(again, payload) {
			t.Fatalf("an accepted payload re-encodes differently:\n%x\n%x", payload, again)
		}
	})
}

// FuzzStoreVerify feeds arbitrary bytes to Store.verify, the check every
// store read makes on a blob from disk (which another process, a crash or
// a bad disk may have written), as a read for one fixed cell. verify may
// not panic, and a blob it accepts must claim the requested cell and be
// exactly what Put frames for the payload it returns. The seeds are the
// pinned corpus: a valid blob, an empty payload's, and each way a blob is
// refused.
func FuzzStoreVerify(f *testing.F) {
	want := IDOf(harness.Spec{Bench: "telco"})
	other := IDOf(harness.Spec{Bench: "richards"})
	valid := frame(want, sampleResult().Encode())
	edit := func(i int, b byte) []byte {
		blob := append([]byte(nil), valid...)
		blob[i] = b
		return blob
	}
	long := append([]byte(nil), valid...)
	binary.BigEndian.PutUint64(long[5+len(want):], 1<<40)
	for _, seed := range [][]byte{
		valid,
		frame(want, nil),
		nil,
		[]byte(storeMagic),
		valid[:len(valid)/2], // truncated
		valid[:len(valid)-1],
		edit(0, 'X'),                             // bad magic
		edit(4, storeVersion-1),                  // old version: superseded
		frame(other, []byte("payload")),          // another cell's blob
		long,                                     // a length past the blob
		append(append([]byte(nil), valid...), 0), // trailing byte
		edit(len(valid)-1, valid[len(valid)-1]^1),    // CRC flip
		edit(len(valid)/2, valid[len(valid)/2]^0x40), // payload flip
	} {
		f.Add(seed)
	}
	var s Store
	f.Fuzz(func(t *testing.T, blob []byte) {
		payload, err := s.verify(want, blob)
		if err != nil {
			return
		}
		if !bytes.Equal(blob[5:5+len(want)], want[:]) {
			t.Fatalf("an accepted blob claims cell %x, want %s", blob[5:5+len(want)], want.Short())
		}
		if again := frame(want, payload); !bytes.Equal(again, blob) {
			t.Fatalf("an accepted blob re-frames differently:\n%x\n%x", blob, again)
		}
	})
}

package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRunRequest feeds arbitrary bytes to what both handlers do with a
// POST /run body before any work: decodeRequest, then Catalog.Cell.
// Neither may panic, and a request they accept must name the same cell
// once re-marshalled — the frontend forwards json.Marshal of what it
// decoded, and routing, coalescing and the store all assume the worker
// computes the CellID the frontend did. The seeds below are the pinned
// corpus: each accepted shape, each refusal, and the inputs a decoder
// gets wrong first.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"telco","vm":"pypy"}`,
		`{"bench":"telco","vm":"pypy-tiered","threshold":40,"bridge_threshold":7,"baseline_threshold":3}`,
		`{"bench":"richards","vm":"pypy-amalg","sample_interval":200000,"fresh":true}`,
		`{"bench":"telco","vm":"pypy","threshold":-1}`,
		`{"bench":"telco","vm":"pypy","threshold":9223372036854775807,"sample_interval":18446744073709551615}`,
		`{"bench":"telco","vm":"pypy","sample_interval":18446744073709551616}`,
		`{"bench":"telco","vm":"pypy","sample_interval":-1}`,
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

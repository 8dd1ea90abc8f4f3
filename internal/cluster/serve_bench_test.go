package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"metajit/internal/harness"
)

// BenchmarkServeMemo is the warm serving path end to end: a frontend and
// three workers over loopback and one store directory, one short real
// cell per VM kind simulated beforehand, and GOMAXPROCS closed-loop
// clients drawing memo hits. Clients, frontend and workers share the
// process, so B/op and allocs/op are a whole request's, both hops and
// the client; ns/op is time per request with every client busy, and the
// p50 and p90 are per request. `make serveprof` runs it under the CPU
// profiler.
func BenchmarkServeMemo(b *testing.B) {
	catalog, err := NewCatalog("")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	var urls []string
	for i := 0; i < 3; i++ {
		store, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		w := NewWorker(WorkerConfig{Name: fmt.Sprintf("w%d", i), Workers: 1, Store: store, Catalog: catalog})
		ts := httptest.NewServer(w.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	clients := runtime.GOMAXPROCS(0)
	upstream := &http.Transport{MaxIdleConnsPerHost: clients}
	defer upstream.CloseIdleConnections()
	fts := httptest.NewServer(NewFrontend(FrontendConfig{
		Workers: urls, Catalog: catalog, Client: &http.Client{Transport: upstream},
	}).Handler())
	defer fts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	// A client reads each reply into the one buffer it keeps, so that what
	// B/op counts is the serving path and not the reader.
	post := func(body []byte, source string, reply *bytes.Buffer) {
		resp, err := client.Post(fts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Error(err)
			return
		}
		reply.Reset()
		_, err = reply.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(reply.Bytes(), []byte(`"source": "`+source+`"`)) {
			b.Errorf("status %d, %v, want a 200 from %s: %.200s", resp.StatusCode, err, source, reply)
		}
	}
	var bodies [][]byte
	for _, vm := range []harness.VMKind{
		harness.VMCPython, harness.VMPyPyNoJIT, harness.VMPyPyJIT, harness.VMPyPyTiered,
		harness.VMPyPyAmalg, harness.VMPyPyAdaptive, harness.VMRacket, harness.VMPycket, harness.VMC,
	} {
		name := "telco"
		if vm == harness.VMRacket || vm == harness.VMPycket || vm == harness.VMC {
			name = "fasta" // telco has no Scheme source and no static kernel
		}
		body := []byte(fmt.Sprintf(`{"bench":%q,"vm":%q}`, name, vm))
		post(body, "simulated", new(bytes.Buffer))
		bodies = append(bodies, body)
	}
	if b.Failed() {
		b.FailNow()
	}

	var (
		mu sync.Mutex
		us []float64
	)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) { // GOMAXPROCS goroutines: the clients
		var (
			mine  []float64
			reply bytes.Buffer
		)
		for i := 0; pb.Next(); i++ {
			start := time.Now()
			post(bodies[i%len(bodies)], "memo", &reply)
			mine = append(mine, float64(time.Since(start).Nanoseconds())/1e3)
		}
		mu.Lock()
		us = append(us, mine...)
		mu.Unlock()
	})
	b.StopTimer()
	sort.Float64s(us)
	b.ReportMetric(us[len(us)/2], "p50-µs")
	b.ReportMetric(us[len(us)*9/10], "p90-µs")
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// harness is one durable service driven in process through its HTTP
// handler, with the store counters the per-layer report reads.
type harness struct {
	svc *service.Service
	h   http.Handler
	sm  *store.Metrics
	dir string
}

// openService opens a fresh store under dir and restores a service from
// the seed — learn, engine build and baseline checkpoint — then waits for
// the first answered request. The WAL runs at fsync=never: a fsync would
// time the shared disk, not the program. Automatic checkpoints are off so
// no background snapshot write lands inside a timed loop. fs, when
// non-nil, wraps every store write (the traced run's timing FS).
func openService(dir string, seed *service.Seed, fs store.FS) (*harness, time.Duration, error) {
	reg := obs.NewRegistry()
	sm := store.NewMetrics(reg)
	t0 := time.Now()
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncNever, SnapshotEvery: -1, FS: fs, Metrics: sm})
	if err != nil {
		return nil, 0, fmt.Errorf("opening store: %w", err)
	}
	svc, err := service.Restore(st, rec, seed, service.Options{DefaultLinker: datalink.DefaultLinkingConfig(), Metrics: reg})
	if err != nil {
		st.Close()
		return nil, 0, fmt.Errorf("restoring service: %w", err)
	}
	hs := &harness{svc: svc, h: svc.Handler(), sm: sm, dir: dir}
	if code, body := hs.call("GET", "/v1/status", nil); code != http.StatusOK {
		hs.close()
		return nil, 0, fmt.Errorf("first status request: %d %s", code, body)
	}
	return hs, time.Since(t0), nil
}

// close stops the service and deletes its store.
func (hs *harness) close() error {
	err := hs.svc.Close()
	if rerr := os.RemoveAll(hs.dir); err == nil {
		err = rerr
	}
	return err
}

// call sends one request through the handler and returns the status
// code and response body.
func (hs *harness) call(method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, "http://perfbench.invalid"+path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	if strings.HasPrefix(path, "/v1/items/bulk") {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The benchmark skips the network stack, so latencies are the
	// handler's alone.
	rec := httptest.NewRecorder()
	hs.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// status reads GET /v1/status.
func (hs *harness) status() (statusJSON, error) {
	var st statusJSON
	code, body := hs.call("GET", "/v1/status", nil)
	if code != http.StatusOK {
		return st, fmt.Errorf("status: %d %s", code, body)
	}
	return st, json.Unmarshal(body, &st)
}

// rules reads the rule texts of GET /v1/rules, in service order.
func (hs *harness) rules() ([]string, error) {
	code, body := hs.call("GET", "/v1/rules", nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("rules: %d %s", code, body)
	}
	var resp struct {
		Rules []struct {
			Text string `json:"text"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	out := make([]string, len(resp.Rules))
	for i, r := range resp.Rules {
		out[i] = r.Text
	}
	return out, nil
}

// statusJSON is the part of GET /v1/status the output checks read.
type statusJSON struct {
	ExternalTriples int `json:"external_triples"`
	LocalTriples    int `json:"local_triples"`
	TrainingLinks   int `json:"training_links"`
}

// seedFor builds a fresh service seed: new graphs holding the set-up
// items, so every set-up starts from graphs no earlier one touched.
func seedFor(c *corpus, s setup) *service.Seed {
	return &service.Seed{
		External: graphOf(s.ext),
		Local:    graphOf(s.loc),
		Ontology: c.ol,
		Training: toLinks(s.train),
	}
}

// storeDir returns a fresh, not yet existing store directory under work.
func storeDir(work string, n int) string {
	return filepath.Join(work, fmt.Sprintf("store-%d-%d", os.Getpid(), n))
}

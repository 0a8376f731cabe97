package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBenchCLI runs realMain with a tiny grid into dir and returns the
// decoded document.
func runBenchCLI(t *testing.T, out string, seed string) Doc {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{
		"-out", out, "-seed", seed,
		"-machines", "2,3", "-batches", "1,8", "-snapshots", "120",
	}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("chaos-bench exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchGridAndCheck runs a small grid end to end: the document must
// carry the full machines x batches grid, validate under -check, and
// record the tracing-overhead pair.
func TestBenchGridAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	doc := runBenchCLI(t, out, "7")
	if doc.Schema != Schema {
		t.Fatalf("schema %q", doc.Schema)
	}
	if len(doc.Cells) != 4 {
		t.Fatalf("want 2x2 grid, got %d cells", len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.EstimatesPerSec <= 0 || c.Failed != 0 {
			t.Fatalf("bad cell: %+v", c)
		}
		wantEndpoint := "/v1/estimate/batch"
		if c.Batch == 1 {
			wantEndpoint = "/v1/estimate"
		}
		if c.Endpoint != wantEndpoint {
			t.Fatalf("cell batch=%d endpoint %q", c.Batch, c.Endpoint)
		}
	}
	if doc.TraceOverhead == nil || doc.TraceOverhead.BaseEstPerSec <= 0 {
		t.Fatalf("tracing overhead pair missing: %+v", doc.TraceOverhead)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-check", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check failed: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("check output: %s", stdout.String())
	}
}

// TestBenchDigestReproducible: the same seed must replay a byte-identical
// workload (the digest proves it); a different seed must not.
func TestBenchDigestReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	dir := t.TempDir()
	a := runBenchCLI(t, filepath.Join(dir, "a.json"), "7")
	b := runBenchCLI(t, filepath.Join(dir, "b.json"), "7")
	c := runBenchCLI(t, filepath.Join(dir, "c.json"), "8")
	if a.WorkloadDigest != b.WorkloadDigest {
		t.Fatalf("same seed, different workloads: %s vs %s", a.WorkloadDigest, b.WorkloadDigest)
	}
	if a.WorkloadDigest == c.WorkloadDigest {
		t.Fatal("different seeds produced the same workload digest")
	}
}

// TestBenchCheckRejectsBadDocs: -check must fail on schema drift, on
// cells that record failures, and on a document with no cells.
func TestBenchCheckRejectsBadDocs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc Doc) string {
		data, _ := json.Marshal(doc)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	digest := strings.Repeat("ab", 32)
	good := Cell{Machines: 3, Batch: 1, Snapshots: 10, EstimatesPerSec: 100, P50Ms: 1, P99Ms: 2}
	cases := map[string]Doc{
		"schema.json": {Envelope: Envelope{Schema: "chaos-bench/v0"}, WorkloadDigest: digest, Cells: []Cell{good}},
		"digest.json": {Envelope: Envelope{Schema: Schema}, Cells: []Cell{good}},
		"failed.json": {Envelope: Envelope{Schema: Schema}, WorkloadDigest: digest,
			Cells: []Cell{{Machines: 3, Batch: 1, Snapshots: 10, EstimatesPerSec: 100, Failed: 2}}},
		"tail.json": {Envelope: Envelope{Schema: Schema}, WorkloadDigest: digest,
			Cells: []Cell{{Machines: 3, Batch: 1, Snapshots: 10, EstimatesPerSec: 100, P50Ms: 5, P99Ms: 1}}},
		"empty.json": {Envelope: Envelope{Schema: Schema}, WorkloadDigest: digest, Cells: []Cell{}},
	}
	for name, doc := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", write(name, doc)}, &stdout, &stderr); code == 0 {
			t.Errorf("%s: -check accepted a bad document", name)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestClusterBenchRunAndCheck: -cluster produces a valid, reproducible
// document that -check accepts.
func TestClusterBenchRunAndCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cluster.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-cluster", "-cluster-machines", "100,200", "-sim-seconds", "120", "-out", out}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("chaos-bench -cluster exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc ClusterDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ClusterSchema || !doc.ReproVerified || len(doc.Cells) != 2 {
		t.Fatalf("document malformed: schema=%q repro=%v cells=%d", doc.Schema, doc.ReproVerified, len(doc.Cells))
	}
	for _, c := range doc.Cells {
		if c.Events <= 0 || c.EventsPerSec <= 0 || len(c.Digest) != 64 {
			t.Fatalf("bad cell: %+v", c)
		}
		if c.ActiveFraction <= 0 || c.ActiveFraction > 0.6 {
			t.Fatalf("active fraction %v: event loop not sparse", c.ActiveFraction)
		}
		if c.AllocsPerEvent > 2 {
			t.Fatalf("allocs/event %v: hot path is allocating", c.AllocsPerEvent)
		}
	}
	stdout.Reset()
	if code := realMain([]string{"-check", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-check rejected fresh cluster doc: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("check output: %s", stdout.String())
	}
}

// TestClusterBenchCheckRejectsBadDocs: schema drift, missing repro proof,
// and collapsing throughput all fail -check.
func TestClusterBenchCheckRejectsBadDocs(t *testing.T) {
	dir := t.TempDir()
	digest := strings.Repeat("ab", 32)
	cell := func(n int, rate float64) ClusterCell {
		return ClusterCell{Machines: n, Events: 1000, EventsPerSec: rate,
			SimSecondsPerSec: 10, ActiveFraction: 0.2, Digest: digest}
	}
	cases := map[string]ClusterDoc{
		"schema.json": {Envelope: Envelope{Schema: "chaos-bench-cluster/v0"}, ReproVerified: true,
			Cells: []ClusterCell{cell(100, 1e6), cell(1000, 1e6)}},
		"repro.json": {Envelope: Envelope{Schema: ClusterSchema},
			Cells: []ClusterCell{cell(100, 1e6), cell(1000, 1e6)}},
		"collapse.json": {Envelope: Envelope{Schema: ClusterSchema}, ReproVerified: true,
			Cells: []ClusterCell{cell(100, 1e6), cell(20000, 5e4)}},
		"onecell.json": {Envelope: Envelope{Schema: ClusterSchema}, ReproVerified: true,
			Cells: []ClusterCell{cell(100, 1e6)}},
		"unordered.json": {Envelope: Envelope{Schema: ClusterSchema}, ReproVerified: true,
			Cells: []ClusterCell{cell(1000, 1e6), cell(100, 1e6)}},
	}
	for name, doc := range cases {
		data, _ := json.Marshal(doc)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-check", p}, &stdout, &stderr); code == 0 {
			t.Errorf("%s: -check accepted a bad cluster document", name)
		}
	}
}

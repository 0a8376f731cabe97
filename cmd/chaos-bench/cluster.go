package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
)

// ClusterSchema identifies the cluster-simulation benchmark document
// (BENCH_cluster.json); bump on incompatible change.
const ClusterSchema = "chaos-bench-cluster/v1"

// ClusterDoc is the cluster benchmark document: how fast the
// event-driven datacenter simulator chews through simulated time at
// each fleet size, and proof the runs reproduce.
type ClusterDoc struct {
	Envelope
	SimSeconds int64 `json:"sim_seconds"`
	// ReproVerified is set after the smallest cell is run twice and both
	// runs produced identical event digests.
	ReproVerified bool          `json:"repro_verified"`
	Cells         []ClusterCell `json:"cells"`
}

// ClusterCell is one fleet-size measurement.
type ClusterCell struct {
	Machines int    `json:"machines"`
	Grid     string `json:"grid"`
	Events   int64  `json:"events"`
	Steps    int64  `json:"steps"`
	// ActiveFraction is steps over machines × sim-seconds: the share of
	// lockstep work the event loop actually had to do.
	ActiveFraction   float64 `json:"active_fraction"`
	EventsPerSec     float64 `json:"events_per_sec"`
	SimSecondsPerSec float64 `json:"sim_seconds_per_sec"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	WallMS           float64 `json:"wall_ms"`
	DatacenterWatts  float64 `json:"datacenter_watts_end"`
	// Digest is the sha256 over every (time, machine, watts) update; the
	// same seed and size must reproduce it bit for bit.
	Digest string `json:"digest"`
}

// clusterGrid picks a rows × racks × machines-per-rack layout for a
// fleet size, preferring the shapes the committed document tracks.
func clusterGrid(n int) (rows, racks, perRack int, err error) {
	switch n {
	case 100:
		return 1, 5, 20, nil
	case 1000:
		return 5, 5, 40, nil
	case 20000:
		return 10, 50, 40, nil
	}
	// Fallback: one row of 40-machine racks (n must divide evenly).
	if n%40 == 0 {
		return 1, n / 40, 40, nil
	}
	if n < 1 {
		return 0, 0, 0, fmt.Errorf("cluster size %d", n)
	}
	return 1, 1, n, nil
}

func clusterSpec(n int, seed int64) (*cluster.Spec, error) {
	rows, racks, perRack, err := clusterGrid(n)
	if err != nil {
		return nil, err
	}
	return &cluster.Spec{
		Version: cluster.SpecVersion,
		Name:    fmt.Sprintf("bench-%d", n),
		Seed:    seed,
		Grid: &cluster.Grid{
			Rows: rows, RacksPerRow: racks, MachinesPerRack: perRack,
			Platforms: []cluster.Weighted{
				{Name: "XeonSAS", Weight: 0.35},
				{Name: "XeonSATA", Weight: 0.25},
				{Name: "Opteron", Weight: 0.25},
				{Name: "Athlon", Weight: 0.1},
				{Name: "Core2", Weight: 0.05},
			},
			Profiles: []cluster.Weighted{
				{Name: "bursty", Weight: 0.55},
				{Name: "diurnal", Weight: 0.25},
				{Name: "steady", Weight: 0.1},
				{Name: "idle", Weight: 0.1},
			},
		},
	}, nil
}

// runClusterCell simulates one fleet size for simSeconds and measures
// throughput and allocations per event.
func runClusterCell(n int, seed, simSeconds int64) (ClusterCell, error) {
	spec, err := clusterSpec(n, seed)
	if err != nil {
		return ClusterCell{}, err
	}
	topo, err := cluster.Build(spec)
	if err != nil {
		return ClusterCell{}, err
	}
	cs := cluster.NewSimulator(topo)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	// Interleave aggregate reads the way a monitoring driver would, so
	// the measured rate includes incremental re-aggregation.
	for t := simSeconds / 10; t <= simSeconds; t += simSeconds / 10 {
		cs.RunUntil(t)
		if w := topo.Root.Watts(); w <= 0 || math.IsNaN(w) {
			return ClusterCell{}, fmt.Errorf("size %d: datacenter watts %v at t=%d", n, w, t)
		}
	}
	cs.RunUntil(simSeconds)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	rows, racks, perRack, _ := clusterGrid(n)
	cell := ClusterCell{
		Machines:        n,
		Grid:            fmt.Sprintf("%dx%dx%d", rows, racks, perRack),
		Events:          cs.Events(),
		Steps:           cs.Steps(),
		ActiveFraction:  math.Round(float64(cs.Steps())/float64(int64(n)*simSeconds)*1e4) / 1e4,
		WallMS:          math.Round(wall.Seconds()*1e4) / 10,
		DatacenterWatts: math.Round(topo.Root.Watts()*10) / 10,
		Digest:          cs.Digest(),
	}
	if cs.Events() > 0 {
		cell.AllocsPerEvent = math.Round(float64(after.Mallocs-before.Mallocs)/float64(cs.Events())*100) / 100
	}
	if s := wall.Seconds(); s > 0 {
		cell.EventsPerSec = math.Round(float64(cs.Events()) / s)
		cell.SimSecondsPerSec = math.Round(float64(simSeconds)/s*10) / 10
	}
	return cell, nil
}

func runClusterBench(w io.Writer, out string, seed int64, sizes []int, simSeconds int64) error {
	if simSeconds < 10 {
		return fmt.Errorf("-sim-seconds must be ≥ 10")
	}
	doc := &ClusterDoc{Envelope: newEnvelope(ClusterSchema, seed), SimSeconds: simSeconds}
	for _, n := range sizes {
		cell, err := runClusterCell(n, seed, simSeconds)
		if err != nil {
			return err
		}
		doc.Cells = append(doc.Cells, cell)
		fmt.Fprintf(w, "machines=%-6d %12.0f events/s  %8.1f sim-s/s  active %.1f%%  allocs/event %.2f\n",
			n, cell.EventsPerSec, cell.SimSecondsPerSec, cell.ActiveFraction*100, cell.AllocsPerEvent)
	}
	// Reproducibility: the smallest cell rerun must replay the identical
	// event stream.
	err := verifyRepro(fmt.Sprintf("size %d", sizes[0]), doc.Cells[0].Digest, func() (string, error) {
		rerun, err := runClusterCell(sizes[0], seed, simSeconds)
		return rerun.Digest, err
	})
	if err != nil {
		return err
	}
	doc.ReproVerified = true
	return writeDoc(w, out, doc, len(doc.Cells), "repro verified")
}

// checkClusterDoc validates a cluster benchmark document. Beyond shape,
// it enforces the scaling contract: per-event cost must not degrade more
// than 10× between the smallest and largest fleet (the event loop plus
// incremental aggregation is what keeps it flat).
func checkClusterDoc(path string, doc *ClusterDoc, w io.Writer) error {
	if len(doc.Cells) < 2 {
		return fmt.Errorf("%s: %d cells, want at least 2 fleet sizes", path, len(doc.Cells))
	}
	for i, c := range doc.Cells {
		if c.Machines <= 0 || c.Events <= 0 || c.EventsPerSec <= 0 || c.SimSecondsPerSec <= 0 {
			return fmt.Errorf("%s: cell %d (%d machines) has no throughput", path, i, c.Machines)
		}
		if len(c.Digest) != 64 {
			return fmt.Errorf("%s: cell %d missing digest", path, i)
		}
		if c.ActiveFraction <= 0 || c.ActiveFraction >= 1 {
			return fmt.Errorf("%s: cell %d active fraction %v, want (0, 1) — an all-idle or lockstep fleet measures nothing", path, i, c.ActiveFraction)
		}
		if i > 0 && c.Machines <= doc.Cells[i-1].Machines {
			return fmt.Errorf("%s: cells not ordered by fleet size", path)
		}
	}
	small, large := doc.Cells[0], doc.Cells[len(doc.Cells)-1]
	if large.EventsPerSec < small.EventsPerSec/10 {
		return fmt.Errorf("%s: events/sec collapses with scale: %d machines at %.0f vs %d at %.0f (>10x)",
			path, small.Machines, small.EventsPerSec, large.Machines, large.EventsPerSec)
	}
	fmt.Fprintf(w, "%s: ok — %d fleet sizes up to %d machines, %.0f events/s at the largest\n",
		path, len(doc.Cells), large.Machines, large.EventsPerSec)
	return nil
}
